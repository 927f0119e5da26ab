(* Tests for the performance-observability layer: the Jsonx parser, the
   append-only run ledger (including torn-final-line recovery), the
   baseline regression classifier, golden `ddm perf diff` renderings, and
   end-to-end `ddm perf record / check` exit codes. *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let tmp_file =
  let k = ref 0 in
  fun suffix ->
    incr k;
    Printf.sprintf "test_perf_%d_%d%s" (Unix.getpid ()) !k suffix

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------- jsonx ------------------------------- *)

let qcheck_case ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* Random JSON trees with distinct keys per object: arbitrary bytes in
   strings and keys, and numbers drawn from [num]. *)
let json_gen num =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
      let leaf =
        oneof
          [ return Jsonx.Null; map (fun b -> Jsonx.Bool b) bool; map (fun f -> Jsonx.Num f) num;
            map (fun s -> Jsonx.Str s) (string_size (0 -- 8)) ]
      in
      if n = 0 then leaf
      else
        let kids = list_size (0 -- 4) (self (n / 3)) in
        let fields = list_size (0 -- 4) (pair (string_size (0 -- 4)) (self (n / 3))) in
        let distinct = List.mapi (fun i (k, v) -> (Printf.sprintf "%s#%d" k i, v)) in
        frequency
          [ (2, leaf); (1, map (fun l -> Jsonx.Arr l) kids);
            (1, map (fun l -> Jsonx.Obj (distinct l)) fields) ]))

let finite_float =
  QCheck.Gen.(
    oneof
      [ map (fun f -> if Float.is_finite f then f else 0.5) float; map float_of_int int;
        return (-0.); return 1e15; return 5e-324 ])

let json_arb = QCheck.make ~print:Jsonx.to_string (json_gen finite_float)
let json_any_arb = QCheck.make ~print:Jsonx.to_string (json_gen QCheck.Gen.float)

let jsonx_tests =
  [
    Alcotest.test_case "parse/print round-trips" `Quick (fun () ->
      List.iter
        (fun s ->
          match Jsonx.parse s with
          | Error e ->
            Alcotest.fail (Printf.sprintf "%s failed to parse: %s" s (Jsonx.error_to_string e))
          | Ok v -> Alcotest.(check string) ("round-trip: " ^ s) s (Jsonx.to_string v))
        [
          "null"; "true"; "false"; "0"; "-3"; "42"; "0.5"; "-0.25"; "1e+20";
          "\"\""; "\"a b\""; "\"\\\"quoted\\\"\""; "\"\\\\\""; "[]"; "[1,2,3]";
          "{}"; "{\"a\":1}"; "{\"a\":[true,null],\"b\":{\"c\":\"d\"}}";
        ]);
    Alcotest.test_case "whitespace and escapes parse" `Quick (fun () ->
      match Jsonx.parse "  { \"a\" : [ 1 , \"x\\n\\t\\u0041\" ] }  " with
      | Error e -> Alcotest.fail (Jsonx.error_to_string e)
      | Ok v -> (
        Alcotest.(check (option (float 0.))) "a[0]" (Some 1.)
          (Option.bind (Jsonx.list_member "a" v) (fun l -> Jsonx.to_float_opt (List.hd l)));
        match Jsonx.list_member "a" v with
        | Some [ _; Jsonx.Str s ] -> Alcotest.(check string) "escapes decoded" "x\n\tA" s
        | _ -> Alcotest.fail "expected a two-element array"));
    Alcotest.test_case "malformed inputs are rejected" `Quick (fun () ->
      List.iter
        (fun s ->
          Alcotest.(check bool) ("rejected: " ^ s) true (Result.is_error (Jsonx.parse s)))
        [ ""; "{"; "[1,"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]);
    Alcotest.test_case "accessors find members and miss cleanly" `Quick (fun () ->
      let v = Jsonx.parse_exn "{\"i\":7,\"f\":2.5,\"s\":\"hi\",\"l\":[1]}" in
      Alcotest.(check (option int)) "int" (Some 7) (Jsonx.int_member "i" v);
      Alcotest.(check (option (float 0.))) "float" (Some 2.5) (Jsonx.float_member "f" v);
      Alcotest.(check (option string)) "string" (Some "hi") (Jsonx.string_member "s" v);
      Alcotest.(check bool) "list" true (Jsonx.list_member "l" v = Some [ Jsonx.Num 1. ]);
      Alcotest.(check (option int)) "missing" None (Jsonx.int_member "zzz" v);
      Alcotest.(check (option int)) "wrong type" None (Jsonx.int_member "s" v));
    Alcotest.test_case "non-finite numbers are rejected and never printed" `Quick (fun () ->
      Alcotest.(check bool) "1e999" true (Jsonx.parse "1e999" = Error (Jsonx.Non_finite 0));
      Alcotest.(check bool) "-1e999 in an array" true
        (Jsonx.parse "[-1e999]" = Error (Jsonx.Non_finite 1));
      Alcotest.(check bool) "underflow is finite" true (Jsonx.parse "1e-999" = Ok (Jsonx.Num 0.));
      List.iter
        (fun v ->
          Alcotest.(check string) (Printf.sprintf "%h prints as null" v) "[null]"
            (Jsonx.to_string (Jsonx.Arr [ Jsonx.Num v ])))
        [ infinity; neg_infinity; nan ]);
    Alcotest.test_case "number grammar is strict" `Quick (fun () ->
      List.iter
        (fun (s, at) ->
          Alcotest.(check bool) ("leading zero: " ^ s) true
            (Jsonx.parse s = Error (Jsonx.Leading_zero at)))
        [ ("0123", 0); ("01.5", 0); ("-01", 0); ("[1,00]", 3) ];
      List.iter
        (fun s ->
          Alcotest.(check bool) ("rejected: " ^ s) true
            (match Jsonx.parse s with Error (Jsonx.Syntax _) -> true | _ -> false))
        [ "+1"; ".5"; "1."; "1e"; "1e+"; "-"; "0x10"; "1.5.2"; "Infinity"; "NaN" ];
      List.iter
        (fun (s, v) ->
          Alcotest.(check bool) ("accepted: " ^ s) true (Jsonx.parse s = Ok (Jsonx.Num v)))
        [ ("0", 0.); ("-0", -0.); ("0.5", 0.5); ("0e5", 0.); ("10", 10.); ("1E+2", 100.);
          ("-2.5e-3", -0.0025) ]);
    Alcotest.test_case "lone surrogates are rejected, pairs decode" `Quick (fun () ->
      List.iter
        (fun (s, at) ->
          Alcotest.(check bool) ("lone: " ^ s) true
            (Jsonx.parse s = Error (Jsonx.Lone_surrogate at)))
        [ ("\"\\ud800\"", 1); ("\"\\udc00\"", 1); ("\"x\\ud800y\"", 2);
          ("\"\\ud800\\u0041\"", 1); ("\"\\udbff\\ud800\"", 1) ];
      Alcotest.(check bool) "U+1F600 from its pair" true
        (Jsonx.parse "\"\\ud83d\\ude00\"" = Ok (Jsonx.Str "\xF0\x9F\x98\x80"));
      Alcotest.(check bool) "U+FFFF" true
        (Jsonx.parse "\"\\uffff\"" = Ok (Jsonx.Str "\xEF\xBF\xBF"));
      Alcotest.(check bool) "bad hex" true
        (match Jsonx.parse "\"\\u12_4\"" with Error (Jsonx.Syntax _) -> true | _ -> false));
    Alcotest.test_case "duplicate keys are rejected" `Quick (fun () ->
      Alcotest.(check bool) "top level" true
        (Jsonx.parse "{\"a\":1,\"a\":2}" = Error (Jsonx.Duplicate_key ("a", 7)));
      Alcotest.(check bool) "nested" true
        (Jsonx.parse "[{\"b\":{},\"c\":0,\"b\":[]}]"
        = Error (Jsonx.Duplicate_key ("b", 15)));
      Alcotest.(check bool) "same key in distinct objects is fine" true
        (Result.is_ok (Jsonx.parse "{\"a\":{\"a\":1},\"b\":[{\"a\":2},{\"a\":3}]}")));
    qcheck_case "to_string round-trips through parse" json_arb (fun v ->
      Jsonx.parse (Jsonx.to_string v) = Ok v);
    qcheck_case "to_string is valid JSON even for non-finite numbers" json_any_arb (fun v ->
      Result.is_ok (Jsonx.parse (Jsonx.to_string v)));
  ]

(* ------------------------------- ledger ------------------------------- *)

let sample_entry ?(command = "test") () =
  let gc =
    {
      Ledger.minor_words = 1234.;
      promoted_words = 56.;
      major_words = 78.;
      minor_collections = 2;
      major_collections = 1;
      compactions = 0;
    }
  in
  {
    Ledger.timestamp_s = 1700000000.5;
    command;
    argv = [ "--seed"; "7" ];
    seed = Some 7;
    rev = Some "abc123";
    wall_seconds = 0.25;
    gc;
    metrics = Jsonx.parse_exn "{\"counters\":{\"x\":1}}";
  }

let ledger_tests =
  [
    Alcotest.test_case "entry JSON round-trip" `Quick (fun () ->
      let e = sample_entry () in
      match Ledger.of_json (Ledger.to_json e) with
      | Error msg -> Alcotest.fail msg
      | Ok e' ->
        Alcotest.(check string) "command" e.Ledger.command e'.Ledger.command;
        Alcotest.(check (list string)) "argv" e.Ledger.argv e'.Ledger.argv;
        Alcotest.(check (option int)) "seed" e.Ledger.seed e'.Ledger.seed;
        Alcotest.(check (option string)) "rev" e.Ledger.rev e'.Ledger.rev;
        Alcotest.(check (float 1e-9)) "wall" e.Ledger.wall_seconds e'.Ledger.wall_seconds;
        Alcotest.(check (float 1e-9)) "gc minor words" e.Ledger.gc.Ledger.minor_words
          e'.Ledger.gc.Ledger.minor_words);
    Alcotest.test_case "wrong schema is rejected" `Quick (fun () ->
      let doctored =
        match Ledger.to_json (sample_entry ()) with
        | Jsonx.Obj kvs ->
          Jsonx.Obj
            (List.map
               (fun (k, v) -> if k = "schema" then (k, Jsonx.Str "other/v9") else (k, v))
               kvs)
        | _ -> Alcotest.fail "entry did not serialize to an object"
      in
      Alcotest.(check bool) "rejected" true (Result.is_error (Ledger.of_json doctored)));
    Alcotest.test_case "append/load round-trip preserves order" `Quick (fun () ->
      let file = tmp_file ".jsonl" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          Ledger.append ~file (sample_entry ~command:"first" ());
          Ledger.append ~file (sample_entry ~command:"second" ());
          let entries, skipped = Ledger.load ~file in
          Alcotest.(check int) "no skips" 0 skipped;
          Alcotest.(check (list string)) "file order" [ "first"; "second" ]
            (List.map (fun e -> e.Ledger.command) entries)));
    Alcotest.test_case "git rev resolves packed refs" `Quick (fun () ->
      (* Synthetic checkout layout: HEAD points at a ref that has no loose
         file, only a packed-refs line — the state `git pack-refs` (or a
         fresh clone) leaves behind. *)
      let root = Filename.temp_file "test_perf_git" "" in
      Sys.remove root;
      let git = Filename.concat root ".git" in
      let refs_heads = Filename.concat git (Filename.concat "refs" "heads") in
      List.iter (fun d -> Unix.mkdir d 0o755) [ root; git; Filename.concat git "refs"; refs_heads ];
      let rm_rf = Printf.sprintf "rm -rf %s" (Filename.quote root) in
      Fun.protect
        ~finally:(fun () -> ignore (Sys.command rm_rf))
        (fun () ->
          let packed_hash = String.make 40 'a' in
          write_file (Filename.concat git "HEAD") "ref: refs/heads/main\n";
          write_file
            (Filename.concat git "packed-refs")
            (Printf.sprintf
               "# pack-refs with: peeled fully-peeled sorted\n%s refs/heads/main\n^%s\n%s \
                refs/heads/other\n"
               packed_hash (String.make 40 'b') (String.make 40 'c'));
          Alcotest.(check (option string))
            "packed ref resolves" (Some packed_hash)
            (Ledger.git_rev_at ~dir:root);
          (* a loose ref file shadows the packed entry *)
          let loose_hash = String.make 40 'd' in
          write_file (Filename.concat refs_heads "main") (loose_hash ^ "\n");
          Alcotest.(check (option string))
            "loose ref wins" (Some loose_hash)
            (Ledger.git_rev_at ~dir:root);
          (* detached HEAD: the hash is stored directly *)
          write_file (Filename.concat git "HEAD") (loose_hash ^ "\n");
          Alcotest.(check (option string))
            "detached HEAD" (Some loose_hash)
            (Ledger.git_rev_at ~dir:root)));
    Alcotest.test_case "git rev is None for a missing packed ref" `Quick (fun () ->
      let root = Filename.temp_file "test_perf_git" "" in
      Sys.remove root;
      let git = Filename.concat root ".git" in
      List.iter (fun d -> Unix.mkdir d 0o755) [ root; git ];
      let rm_rf = Printf.sprintf "rm -rf %s" (Filename.quote root) in
      Fun.protect
        ~finally:(fun () -> ignore (Sys.command rm_rf))
        (fun () ->
          write_file (Filename.concat git "HEAD") "ref: refs/heads/main\n";
          write_file (Filename.concat git "packed-refs") "# pack-refs with: sorted\n";
          Alcotest.(check (option string)) "unresolvable" None (Ledger.git_rev_at ~dir:root)));
    Alcotest.test_case "torn final line is skipped, earlier entries survive" `Quick (fun () ->
      let file = tmp_file ".jsonl" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          Ledger.append ~file (sample_entry ~command:"survivor" ());
          (* simulate a crash mid-append: a prefix of a record, no newline *)
          let torn = read_file file ^ "{\"schema\":\"ddm.ledger/v1\",\"timest" in
          write_file file torn;
          let entries, skipped = Ledger.load ~file in
          Alcotest.(check int) "one skipped" 1 skipped;
          Alcotest.(check (list string)) "survivor intact" [ "survivor" ]
            (List.map (fun e -> e.Ledger.command) entries)));
    Alcotest.test_case "foreign-schema lines are counted as skips" `Quick (fun () ->
      let file = tmp_file ".jsonl" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          write_file file "{\"schema\":\"not.a.ledger/v1\"}\n";
          Ledger.append ~file (sample_entry ());
          let entries, skipped = Ledger.load ~file in
          Alcotest.(check int) "one entry" 1 (List.length entries);
          Alcotest.(check int) "one skip" 1 skipped));
    Alcotest.test_case "missing file loads as empty" `Quick (fun () ->
      let entries, skipped = Ledger.load ~file:"test_perf_no_such_ledger.jsonl" in
      Alcotest.(check int) "no entries" 0 (List.length entries);
      Alcotest.(check int) "no skips" 0 skipped);
    Alcotest.test_case "gc_of_json zero-fills missing fields" `Quick (fun () ->
      let gc = Ledger.gc_of_json (Jsonx.parse_exn "{\"minor_words\":10}") in
      Alcotest.(check (float 0.)) "present" 10. gc.Ledger.minor_words;
      Alcotest.(check (float 0.)) "absent float" 0. gc.Ledger.major_words;
      Alcotest.(check int) "absent int" 0 gc.Ledger.compactions);
  ]

(* ------------------------------ baseline ------------------------------ *)

let experiment ?(id = "e") runs =
  {
    Baseline.id;
    wall_seconds = List.fold_left ( +. ) 0. runs /. float_of_int (List.length runs);
    runs;
    mc_samples = 0;
    mc_samples_per_sec = 0.;
    mc_span_seconds = None;
    mc_samples_per_sec_mc = None;
    gc = None;
    metrics = None;
  }

let report ?(version = 2) experiments =
  {
    Baseline.version;
    suite = "test";
    created_s = None;
    rev = None;
    seed = None;
    jobs = None;
    total_wall_seconds = List.fold_left (fun a e -> a +. e.Baseline.wall_seconds) 0. experiments;
    experiments;
  }

let verdict_of ~old_runs ~new_runs =
  match
    Baseline.diff
      ~old_report:(report [ experiment old_runs ])
      ~new_report:(report [ experiment new_runs ])
      ()
  with
  | [ c ] -> c.Baseline.verdict
  | cs -> Alcotest.fail (Printf.sprintf "expected 1 comparison, got %d" (List.length cs))

let verdict : Baseline.verdict Alcotest.testable =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Baseline.verdict_to_string v))
    ( = )

let classifier_tests =
  [
    Alcotest.test_case "clear slowdown is a regression" `Quick (fun () ->
      Alcotest.check verdict "single-run" Baseline.Regression
        (verdict_of ~old_runs:[ 0.5 ] ~new_runs:[ 0.75 ]);
      Alcotest.check verdict "repeated tight runs" Baseline.Regression
        (verdict_of ~old_runs:[ 0.100; 0.101; 0.099 ] ~new_runs:[ 0.150; 0.149; 0.151 ]));
    Alcotest.test_case "clear speedup is an improvement" `Quick (fun () ->
      Alcotest.check verdict "single-run" Baseline.Improvement
        (verdict_of ~old_runs:[ 0.5 ] ~new_runs:[ 0.3 ]));
    Alcotest.test_case "small relative delta is noise" `Quick (fun () ->
      (* 10% on a half-second experiment: above the floor, below rel_tolerance *)
      Alcotest.check verdict "below relative gate" Baseline.Noise
        (verdict_of ~old_runs:[ 0.5 ] ~new_runs:[ 0.55 ]));
    Alcotest.test_case "large relative delta below the absolute floor is noise" `Quick (fun () ->
      (* 80% slower but only 0.8 ms in absolute terms *)
      Alcotest.check verdict "below min_delta_s" Baseline.Noise
        (verdict_of ~old_runs:[ 0.001 ] ~new_runs:[ 0.0018 ]));
    Alcotest.test_case "wide run distributions fail the z-gate" `Quick (fun () ->
      (* +30% mean shift, but both sides jitter by +-20-25%: Welch z ~ 0.8 *)
      Alcotest.check verdict "z below threshold" Baseline.Noise
        (verdict_of ~old_runs:[ 0.08; 0.12 ] ~new_runs:[ 0.10; 0.16 ]));
    Alcotest.test_case "z-gate only applies with repeats on both sides" `Quick (fun () ->
      (* same means as the wide-distribution case, but the old side has a
         single run, so the z-gate is skipped and rel+floor decide *)
      Alcotest.check verdict "no z without repeats" Baseline.Regression
        (verdict_of ~old_runs:[ 0.1 ] ~new_runs:[ 0.10; 0.16 ]));
    Alcotest.test_case "added and removed experiments get their own verdicts" `Quick (fun () ->
      let old_report = report [ experiment ~id:"gone" [ 0.1 ] ] in
      let new_report = report [ experiment ~id:"fresh" [ 0.2 ] ] in
      match Baseline.diff ~old_report ~new_report () with
      | [ a; r ] ->
        Alcotest.(check string) "added id" "fresh" a.Baseline.c_id;
        Alcotest.check verdict "added" Baseline.Added a.Baseline.verdict;
        Alcotest.(check string) "removed id" "gone" r.Baseline.c_id;
        Alcotest.check verdict "removed" Baseline.Removed r.Baseline.verdict;
        Alcotest.(check bool) "neither counts as regression" false
          (Baseline.has_regression [ a; r ])
      | cs -> Alcotest.fail (Printf.sprintf "expected 2 comparisons, got %d" (List.length cs)));
    Alcotest.test_case "merge pools runs and re-means wall time" `Quick (fun () ->
      let merged =
        Baseline.merge
          [ report [ experiment ~id:"t3" [ 0.4 ] ]; report [ experiment ~id:"t3" [ 0.6 ] ] ]
      in
      match merged.Baseline.experiments with
      | [ e ] ->
        Alcotest.(check (list (float 1e-12))) "runs concatenate" [ 0.4; 0.6 ] e.Baseline.runs;
        Alcotest.(check (float 1e-12)) "pooled mean" 0.5 e.Baseline.wall_seconds
      | es -> Alcotest.fail (Printf.sprintf "expected 1 experiment, got %d" (List.length es)));
    Alcotest.test_case "v1 and v2 report files both load" `Quick (fun () ->
      let v1 = tmp_file ".json" and v2 = tmp_file ".json" in
      Fun.protect
        ~finally:(fun () -> List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ v1; v2 ])
        (fun () ->
          write_file v1
            "{\"schema\":\"ddm.bench.report/v1\",\"suite\":\"s\",\"total_wall_seconds\":0.5,\"experiments\":[{\"id\":\"a\",\"wall_seconds\":0.5,\"mc_samples\":10,\"mc_samples_per_sec\":20.0,\"metrics\":{}}]}";
          Baseline.write ~file:v2 (report [ experiment ~id:"a" [ 0.4; 0.6 ] ]);
          (match Baseline.load v1 with
          | Error msg -> Alcotest.fail msg
          | Ok r ->
            Alcotest.(check int) "v1 version" 1 r.Baseline.version;
            let e = List.hd r.Baseline.experiments in
            Alcotest.(check (list (float 0.))) "v1 runs fall back to wall" [ 0.5 ]
              e.Baseline.runs);
          match Baseline.load v2 with
          | Error msg -> Alcotest.fail msg
          | Ok r ->
            Alcotest.(check int) "v2 version" 2 r.Baseline.version;
            let e = List.hd r.Baseline.experiments in
            Alcotest.(check (list (float 1e-12))) "v2 runs round-trip" [ 0.4; 0.6 ]
              e.Baseline.runs));
    Alcotest.test_case "unsupported schema is an error" `Quick (fun () ->
      Alcotest.(check bool) "rejected" true
        (Result.is_error (Baseline.of_json (Jsonx.parse_exn "{\"schema\":\"ddm.bench.report/v9\"}"))));
  ]

(* ------------------------------- golden ------------------------------- *)

let golden_old = report ~version:1 [ experiment ~id:"t3" [ 0.5 ]; experiment ~id:"x8" [ 0.5 ] ]
let golden_new = report ~version:1 [ experiment ~id:"t3" [ 0.75 ]; experiment ~id:"x8" [ 0.5 ] ]
let golden_diff () = Baseline.diff ~old_report:golden_old ~new_report:golden_new ()

let golden_tests =
  [
    Alcotest.test_case "diff table golden" `Quick (fun () ->
      let expected =
        "experiment                            old          new        delta    ratio        z \
         verdict\n\
         t3                             500.000 ms   750.000 ms     +250.000    1.50x        - \
         REGRESSION\n\
         x8                             500.000 ms   500.000 ms       +0.000    1.00x        - \
         noise\n\
         1 confirmed regression\n"
      in
      Alcotest.(check string) "table" expected (Baseline.to_table (golden_diff ())));
    Alcotest.test_case "diff JSON golden and parseable" `Quick (fun () ->
      let expected =
        "{\"schema\":\"ddm.perf.diff/v1\",\"noise\":{\"rel_tolerance\":0.25,\"min_delta_s\":0.002,\"z\":2.5},\"comparisons\":[{\"id\":\"t3\",\"old_seconds\":0.5,\"new_seconds\":0.75,\"delta_seconds\":0.25,\"ratio\":1.5,\"z\":null,\"verdict\":\"regression\"},{\"id\":\"x8\",\"old_seconds\":0.5,\"new_seconds\":0.5,\"delta_seconds\":0,\"ratio\":1,\"z\":null,\"verdict\":\"noise\"}],\"regressions\":1}"
      in
      let got = Baseline.diff_to_json (golden_diff ()) in
      Alcotest.(check string) "json" expected got;
      Alcotest.(check bool) "parses back" true (Result.is_ok (Jsonx.parse got)));
    Alcotest.test_case "diff CSV golden" `Quick (fun () ->
      let expected =
        "experiment,old_seconds,new_seconds,delta_seconds,ratio,z,verdict\n\
         t3,0.500000,0.750000,0.250000,1.5000,,REGRESSION\n\
         x8,0.500000,0.500000,0.000000,1.0000,,noise\n"
      in
      Alcotest.(check string) "csv" expected (Baseline.to_csv (golden_diff ())));
  ]

(* ----------------------------- integration ----------------------------- *)

let ddm_exe =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "bin" "ddm.exe");
      Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "ddm.exe"));
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let run_out args out =
  Sys.command (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote ddm_exe) args (Filename.quote out))

let integration_tests =
  [
    Alcotest.test_case "perf record writes a loadable v2 report" `Quick (fun () ->
      let rep = tmp_file ".json" and log = tmp_file ".log" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ rep; log ])
        (fun () ->
          Alcotest.(check int) "record exits 0" 0
            (run_out
               (Printf.sprintf
                  "perf record --out %s --repeat 2 --seed 3 --experiments perf-ih-cdf-m20" rep)
               log);
          match Baseline.load rep with
          | Error msg -> Alcotest.fail msg
          | Ok r ->
            Alcotest.(check int) "schema v2" 2 r.Baseline.version;
            Alcotest.(check int) "one experiment" 1 (List.length r.Baseline.experiments);
            let e = List.hd r.Baseline.experiments in
            Alcotest.(check string) "id" "perf-ih-cdf-m20" e.Baseline.id;
            Alcotest.(check int) "kept both repeats" 2 (List.length e.Baseline.runs);
            Alcotest.(check bool) "gc delta recorded" true (e.Baseline.gc <> None)));
    Alcotest.test_case "perf check passes against itself and fails when doctored" `Quick
      (fun () ->
      let base = tmp_file ".json" and bad = tmp_file ".json" and log = tmp_file ".log" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ base; bad; log ])
        (fun () ->
          Alcotest.(check int) "record exits 0" 0
            (run_out
               (Printf.sprintf
                  "perf record --out %s --repeat 2 --seed 3 --experiments perf-ih-cdf-m20" base)
               log);
          Alcotest.(check int) "identical reports pass" 0
            (run_out (Printf.sprintf "perf check --baseline %s --against %s" base base) log);
          (* doctor a 3x slowdown, far beyond the default tolerance *)
          (match Baseline.load base with
          | Error msg -> Alcotest.fail msg
          | Ok r ->
            let slowed =
              {
                r with
                Baseline.experiments =
                  List.map
                    (fun e ->
                      {
                        e with
                        Baseline.wall_seconds = e.Baseline.wall_seconds *. 3.;
                        runs = List.map (fun x -> x *. 3.) e.Baseline.runs;
                      })
                    r.Baseline.experiments;
              }
            in
            Baseline.write ~file:bad slowed);
          let code = run_out (Printf.sprintf "perf check --baseline %s --against %s" base bad) log in
          Alcotest.(check bool) "doctored slowdown fails" true (code <> 0);
          Alcotest.(check bool) "failure names the regression" true
            (contains (read_file log) "REGRESSION")));
    Alcotest.test_case "perf diff of a report against itself is quiet" `Quick (fun () ->
      let rep = tmp_file ".json" and log = tmp_file ".log" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ rep; log ])
        (fun () ->
          Alcotest.(check int) "record exits 0" 0
            (run_out
               (Printf.sprintf
                  "perf record --out %s --repeat 2 --seed 3 --experiments perf-ih-cdf-m20" rep)
               log);
          Alcotest.(check int) "diff exits 0" 0
            (run_out (Printf.sprintf "perf diff %s %s" rep rep) log);
          Alcotest.(check bool) "no regressions reported" true
            (contains (read_file log) "no confirmed regressions");
          Alcotest.(check int) "json diff exits 0" 0
            (run_out (Printf.sprintf "perf diff %s %s --format json" rep rep) log);
          Alcotest.(check bool) "json output parses" true
            (Result.is_ok (Jsonx.parse (String.trim (read_file log))))));
    Alcotest.test_case "--trace prints the per-name profile" `Quick (fun () ->
      let log = tmp_file ".log" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists log then Sys.remove log)
        (fun () ->
          Alcotest.(check int) "eval exits 0" 0
            (run_out "eval -n 3 --samples 2000 --seed 1 --trace" log);
          let out = read_file log in
          Alcotest.(check bool) "profile header" true (contains out "profile by name");
          Alcotest.(check bool) "mc span profiled" true (contains out "mc.probability")));
    Alcotest.test_case "--ledger appends a loadable entry" `Quick (fun () ->
      let ledger = tmp_file ".jsonl" and log = tmp_file ".log" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ ledger; log ])
        (fun () ->
          Alcotest.(check int) "first run exits 0" 0
            (run_out (Printf.sprintf "eval -n 3 --samples 2000 --seed 9 --ledger %s" ledger) log);
          Alcotest.(check int) "second run exits 0" 0
            (run_out (Printf.sprintf "eval -n 3 --samples 2000 --seed 9 --ledger %s" ledger) log);
          let entries, skipped = Ledger.load ~file:ledger in
          Alcotest.(check int) "two entries" 2 (List.length entries);
          Alcotest.(check int) "no skips" 0 skipped;
          let e = List.hd entries in
          Alcotest.(check string) "command" "eval" e.Ledger.command;
          Alcotest.(check (option int)) "seed captured" (Some 9) e.Ledger.seed;
          Alcotest.(check bool) "wall time positive" true (e.Ledger.wall_seconds > 0.);
          Alcotest.(check bool) "allocation recorded" true
            (e.Ledger.gc.Ledger.minor_words > 0.)));
  ]

let () =
  Alcotest.run "perf"
    [
      ("jsonx", jsonx_tests);
      ("ledger", ledger_tests);
      ("classifier", classifier_tests);
      ("golden", golden_tests);
      ("integration", integration_tests);
    ]
