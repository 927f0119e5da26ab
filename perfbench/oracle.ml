(* Correctness oracles shared by the workloads. *)

(* ---------------- pinned exact-pipeline output ---------------- *)

(* perfbench/pins/exact.txt holds, per instance, a "== n=N delta=D" header
   followed by the `ddm threshold` and `ddm certify` output for it (see
   pin_exact.sh). *)
let load_pins path =
  let tbl = Hashtbl.create 32 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let flush key buf =
        match key with Some k -> Hashtbl.replace tbl k (Buffer.contents buf) | None -> ()
      in
      let rec go key buf =
        match input_line ic with
        | line when String.length line > 3 && String.sub line 0 3 = "== " ->
          flush key buf;
          go (Some (String.sub line 3 (String.length line - 3))) (Buffer.create 1024)
        | line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          go key buf
        | exception End_of_file -> flush key buf
      in
      go None (Buffer.create 1024));
  tbl

let pin_key ~n ~delta = Printf.sprintf "n=%d delta=%s" n (Rat.to_string delta)

(* ------------------- Monte-Carlo agreement ------------------- *)

(* Two-sided normal quantile: the z with P(|Z| > z) = alpha. *)
let z_two_sided alpha =
  let tail z = Float.erfc (z /. Float.sqrt 2.) in
  let rec bisect lo hi k =
    let mid = (lo +. hi) /. 2. in
    if k = 0 then mid else if tail mid > alpha then bisect mid hi (k - 1) else bisect lo mid (k - 1)
  in
  bisect 0. 40. 200

(* Per-check z that keeps the chance of any false alarm among [checks]
   independent checks at [alpha] (Sidak).  At alpha = 0.001 and one check
   this is the usual z = 3.29. *)
let family_z ~alpha ~checks =
  z_two_sided (1. -. ((1. -. alpha) ** (1. /. float_of_int (max 1 checks))))
