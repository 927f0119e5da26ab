(* Span recorder for the traced run.  Spans are recorded from the
   benchmark's own code around calls into each layer's public functions
   (the program itself is not instrumented here), kept in memory, and
   written as one Chrome trace when the run ends.

   Recording happens on the benchmark's main domain only: [with_span]
   keeps a stack of open spans for the parent link, and [record] stores a
   span whose interval was measured elsewhere (a served request, timed by
   the load generator). *)

type span = {
  id : int;
  name : string;
  start : float;  (** monotonic seconds *)
  stop : float;
  parent : int;  (** [-1] for a root span *)
  rid : int;  (** request id for served requests, [-1] otherwise *)
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []

let set_enabled b = enabled := b

let clear () =
  recorded := [];
  next_id := 0;
  open_stack := []

let now = Trace.now_mono_s
let current_parent () = match !open_stack with p :: _ -> p | [] -> -1

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* Record a span measured elsewhere; returns its id ([-1] when disabled). *)
let record_id ?parent ?(rid = -1) ~name ~start ~stop () =
  if not !enabled then -1
  else begin
    let parent = Option.value parent ~default:(current_parent ()) in
    let id = fresh_id () in
    recorded := { id; name; start; stop; parent; rid } :: !recorded;
    id
  end

let record ?parent ?rid ~name ~start ~stop () =
  ignore (record_id ?parent ?rid ~name ~start ~stop ())

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = current_parent () in
    open_stack := id :: !open_stack;
    let start = now () in
    let finish () =
      let stop = now () in
      open_stack := List.tl !open_stack;
      recorded := { id; name; start; stop; parent; rid = -1 } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Spans in start order (ties: parents before children). *)
let spans () =
  List.sort
    (fun a b -> match Float.compare a.start b.start with 0 -> compare a.id b.id | c -> c)
    !recorded

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of each span: its duration minus the part of its interval that
   its children cover.  Concurrent children (served requests overlap) are
   merged before subtracting, so a self time is never negative. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Total self time, total time and count per span name, sorted by name. *)
let self_time_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let self0, total0, n0 =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0., 0., 0)
      in
      Hashtbl.replace tbl s.name (self0 +. self, total0 +. (s.stop -. s.start), n0 + 1))
    (self_times spans);
  Hashtbl.fold (fun name (self, total, n) acc -> (name, self, total, n) :: acc) tbl []
  |> List.sort compare

(* Every child interval lies inside its parent's. *)
let check_nesting spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.fold_left
    (fun acc s ->
      match acc with
      | Error _ -> acc
      | Ok () when s.parent < 0 -> acc
      | Ok () -> (
        match Hashtbl.find_opt by_id s.parent with
        | None -> Error (Printf.sprintf "span %s has a missing parent %d" s.name s.parent)
        | Some p when s.start < p.start || s.stop > p.stop ->
          Error (Printf.sprintf "span %s escapes its parent %s" s.name p.name)
        | Some _ -> acc))
    (Ok ()) spans

(* Chrome trace-event format ("X" complete events, microseconds). *)
let chrome_json spans =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let event s =
    let args =
      [ ("id", Jsonx.Num (float_of_int s.id)); ("parent", Jsonx.Num (float_of_int s.parent)) ]
      @ if s.rid >= 0 then [ ("rid", Jsonx.Num (float_of_int s.rid)) ] else []
    in
    Jsonx.Obj
      [ ("name", Jsonx.Str s.name); ("ph", Jsonx.Str "X"); ("pid", Jsonx.Num 1.);
        ("tid", Jsonx.Num (if s.rid >= 0 then 2. else 1.));
        ("ts", Jsonx.Num ((s.start -. t0) *. 1e6));
        ("dur", Jsonx.Num ((s.stop -. s.start) *. 1e6)); ("args", Jsonx.Obj args) ]
  in
  Jsonx.to_string (Jsonx.Obj [ ("traceEvents", Jsonx.Arr (List.map event spans)) ])

let write_chrome path spans =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (chrome_json spans))
