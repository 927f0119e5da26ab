(* The result line: the last line of standard output is one JSON object
   with the keys correct, attempted, failed and metrics.  Human-readable
   detail goes to standard error. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** first few failure descriptions, newest first *)
  mutable metrics : (string * float * string) list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; problems = []; metrics = [] }

(* Count one checked operation; [ok = false] counts it as failed and keeps
   its description for the log. *)
let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.problems < 20 then t.problems <- what :: t.problems;
    Printf.eprintf "FAILED: %s\n%!" what
  end

let metric t name ~unit value = t.metrics <- (name, value, unit) :: t.metrics

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let to_json t =
  let metrics =
    List.rev_map
      (fun (name, v, unit) -> (name, Jsonx.Obj [ ("value", Jsonx.Num v); ("unit", Jsonx.Str unit) ]))
      t.metrics
  in
  Jsonx.to_string
    (Jsonx.Obj
       [ ("correct", Jsonx.Bool (t.failed = 0 && t.attempted > 0));
         ("attempted", Jsonx.Num (float_of_int t.attempted));
         ("failed", Jsonx.Num (float_of_int t.failed)); ("metrics", Jsonx.Obj metrics) ])

(* Peak resident set size of this process, from /proc/self/status. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> Float.nan
      in
      scan ())
