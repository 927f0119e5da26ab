(* Tests for the benchmark's own helpers: the timing summary, the span
   recorder's self times and nesting, the load generator's schedule, and
   the Monte-Carlo oracle's z. *)

open Perfbench

let checkb msg expected actual = Alcotest.(check bool) msg expected actual
let checkf msg expected actual = Alcotest.(check (float 1e-12)) msg expected actual

(* ------------------------------ summary ------------------------------ *)

let test_summary_sizes () =
  let s = Summary.of_samples [||] in
  Alcotest.(check int) "empty count" 0 s.count;
  checkb "empty median is nan" true (Float.is_nan s.median);
  checkb "empty has no tail" true (s.tail = None);
  let s = Summary.of_samples [| 3. |] in
  checkf "single median" 3. s.median;
  checkb "single has no tail" true (s.tail = None);
  let s = Summary.of_samples [| 4.; 1.; 3.; 2. |] in
  checkf "even median averages the middle pair" 2.5 s.median;
  let tail n = (Summary.of_samples (Array.init n float_of_int)).tail in
  checkb "19 samples: no percentile has ten beyond it" true (tail 19 = None);
  checkb "20 samples: p50" true (Option.map fst (tail 20) = Some 50.);
  checkb "99 samples: p50" true (Option.map fst (tail 99) = Some 50.);
  checkb "100 samples: p90" true (Option.map fst (tail 100) = Some 90.);
  checkb "999 samples: p90" true (Option.map fst (tail 999) = Some 90.);
  checkb "1000 samples: p99" true (Option.map fst (tail 1000) = Some 99.);
  checkb "10000 samples: p99.9" true (Option.map fst (tail 10000) = Some 99.9)

let test_summary_values () =
  let xs = Array.init 1000 (fun i -> float_of_int (999 - i)) in
  let s = Summary.of_samples xs in
  checkf "median of 0..999" 499.5 s.median;
  checkb "p99 is the 990th smallest" true (s.tail = Some (99., 989.));
  checkf "nearest-rank quantile 0" 0. (Summary.quantile xs 0.);
  checkf "nearest-rank quantile 1" 999. (Summary.quantile xs 1.);
  checkb "input left unsorted" true (xs.(0) = 999.)

(* ------------------------------- spans ------------------------------- *)

let with_recorder f =
  Spans.clear ();
  Spans.set_enabled true;
  Fun.protect ~finally:(fun () -> Spans.set_enabled false; Spans.clear ()) f

let test_spans_nesting () =
  with_recorder (fun () ->
      Spans.with_span "root" (fun () ->
          Spans.with_span "a" (fun () -> Spans.with_span "a.x" ignore);
          Spans.with_span "b" ignore);
      let spans = Spans.spans () in
      Alcotest.(check int) "four spans" 4 (List.length spans);
      checkb "children nest inside parents" true (Spans.check_nesting spans = Ok ());
      List.iter
        (fun ((s : Spans.span), self) ->
          checkb (s.name ^ " self time is non-negative") true (self >= 0.);
          checkb (s.name ^ " self time at most its duration") true (self <= s.stop -. s.start))
        (Spans.self_times spans);
      let root = List.find (fun (s : Spans.span) -> s.name = "root") spans in
      checkb "root has no parent" true (root.parent = -1);
      List.iter
        (fun (s : Spans.span) -> if s.name = "a" || s.name = "b" then checkb "parent is root" true (s.parent = root.id))
        spans)

let test_spans_self_time_overlap () =
  with_recorder (fun () ->
      (* a parent of 10 s with three overlapping children covering [1, 7] *)
      let p = Spans.record_id ~name:"p" ~start:0. ~stop:10. () in
      Spans.record ~parent:p ~name:"c" ~start:1. ~stop:5. ();
      Spans.record ~parent:p ~name:"c" ~start:2. ~stop:6. ();
      Spans.record ~parent:p ~name:"c" ~start:4. ~stop:7. ();
      let selfs = Spans.self_times (Spans.spans ()) in
      let self name = List.assoc name (List.map (fun ((s : Spans.span), v) -> (s.name, v)) selfs) in
      checkf "overlapping children are merged, not summed" 4. (self "p");
      checkb "no self time is negative" true (List.for_all (fun (_, v) -> v >= 0.) selfs);
      checkb "nesting holds" true (Spans.check_nesting (Spans.spans ()) = Ok ());
      Spans.record ~parent:p ~name:"escapee" ~start:9. ~stop:11. ();
      checkb "a child outside its parent is caught" true
        (Result.is_error (Spans.check_nesting (Spans.spans ()))))

let test_spans_disabled () =
  Spans.clear ();
  Spans.set_enabled false;
  Alcotest.(check int) "with_span returns the value" 7 (Spans.with_span "x" (fun () -> 7));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Spans.spans ()))

(* ------------------------------ loadgen ------------------------------ *)

let classes = [| (0.6, 50, 1.1); (0.3, 5, 1.1); (0.1, 1_000_000, 0.) |]
let sched seed = Loadgen.schedule ~seed ~rate:500. ~duration:2. ~classes

let test_schedule_deterministic () =
  let a = Loadgen.schedule_to_string (sched 7) and b = Loadgen.schedule_to_string (sched 7) in
  checkb "same seed, byte-identical schedule" true (String.equal a b);
  checkb "another seed, another schedule" false
    (String.equal a (Loadgen.schedule_to_string (sched 8)))

let test_schedule_shape () =
  let items = sched 3 in
  let n = Array.length items in
  checkb "about rate x duration arrivals" true (n > 850 && n < 1150);
  checkb "due times ascend inside the window" true
    (Array.for_all (fun (it : Loadgen.item) -> it.due >= 0. && it.due < 2.) items
    && snd
         (Array.fold_left
            (fun (prev, ok) (it : Loadgen.item) -> (it.due, ok && it.due >= prev))
            (0., true) items));
  checkb "keys inside the key space" true
    (Array.for_all (fun (it : Loadgen.item) -> it.key >= 0 && it.key < 1_000_055) items);
  let share lo hi =
    let k = Array.fold_left (fun acc (it : Loadgen.item) -> if it.key >= lo && it.key < hi then acc + 1 else acc) 0 items in
    float_of_int k /. float_of_int n
  in
  checkb "class shares hold" true (share 50 55 > 0.25 && share 50 55 < 0.35);
  checkb "uniform class share holds" true (share 55 1_000_055 > 0.07 && share 55 1_000_055 < 0.13);
  let fresh = List.sort_uniq compare (List.filter (fun k -> k >= 55) (Array.to_list (Array.map (fun (it : Loadgen.item) -> it.key) items))) in
  checkb "uniform class keys are nearly all distinct" true
    (float_of_int (List.length fresh) > 0.99 *. share 55 1_000_055 *. float_of_int n)

let test_zipf () =
  let cdf = Loadgen.zipf_cdf ~n:100 ~s:1.1 in
  checkf "cdf ends at 1" 1. cdf.(99);
  Alcotest.(check int) "u = 0 is rank 0" 0 (Loadgen.zipf_rank cdf 0.);
  Alcotest.(check int) "u = 1 is the last rank" 99 (Loadgen.zipf_rank cdf 1.);
  checkb "rank 0 is the most popular" true (cdf.(0) > cdf.(1) -. cdf.(0))

let test_parse_response () =
  let status, body = Loadgen.parse_response "HTTP/1.1 429 Too Many\r\nA: b\r\n\r\n{\"x\":1}" in
  Alcotest.(check int) "status" 429 status;
  Alcotest.(check string) "body" "{\"x\":1}" body;
  Alcotest.(check int) "garbage is status 0" 0 (fst (Loadgen.parse_response "garbage"))

(* ------------------------------- oracle ------------------------------ *)

let test_family_z () =
  Alcotest.(check (float 1e-3)) "z at 0.001 is 3.29" 3.29 (Oracle.z_two_sided 0.001);
  Alcotest.(check (float 1e-3)) "one check keeps 3.29" 3.29 (Oracle.family_z ~alpha:0.001 ~checks:1);
  checkb "more checks widen z" true (Oracle.family_z ~alpha:0.001 ~checks:13 > 3.29)

let () =
  Alcotest.run "perfbench"
    [ ( "summary",
        [ Alcotest.test_case "sample sizes" `Quick test_summary_sizes;
          Alcotest.test_case "values" `Quick test_summary_values ] );
      ( "spans",
        [ Alcotest.test_case "nesting and self time" `Quick test_spans_nesting;
          Alcotest.test_case "overlapping children" `Quick test_spans_self_time_overlap;
          Alcotest.test_case "disabled" `Quick test_spans_disabled ] );
      ( "loadgen",
        [ Alcotest.test_case "schedule is a function of the seed" `Quick test_schedule_deterministic;
          Alcotest.test_case "schedule shape" `Quick test_schedule_shape;
          Alcotest.test_case "zipf" `Quick test_zipf;
          Alcotest.test_case "response parsing" `Quick test_parse_response ] );
      ("oracle", [ Alcotest.test_case "family z" `Quick test_family_z ]) ]
