(* Durable tier of the serve answer cache: one self-checking file per
   entry, written tmp + fsync + atomic rename so a crash at any byte
   leaves only states that open-time recovery can classify. *)

type t = {
  mu : Mutex.t;
  store_dir : string;
  quarantine_dir : string;
  index : (string, string) Hashtbl.t;  (* cache key -> entry filename *)
  mutable quarantined : int;
}

type report = { loaded : int; quarantined : int; tmp_removed : int }

let magic = "ddm.cache/v1"
let tmp_prefix = ".tmp-"

let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let entry_filename key = "e" ^ fnv64 key ^ ".entry"
let is_entry_file name = String.length name > 0 && Filename.check_suffix name ".entry"
let is_tmp_file name = String.length name >= String.length tmp_prefix
                       && String.sub name 0 (String.length tmp_prefix) = tmp_prefix

let payload_of ~key value = Jsonx.to_string (Jsonx.Obj [ ("key", Jsonx.Str key); ("value", value) ])

let encode ~key value =
  let payload = payload_of ~key value in
  Printf.sprintf "%s %s %d\n%s\n" magic (fnv64 payload) (String.length payload) payload

(* Full validation of one entry file's contents: header shape, declared
   length, checksum, JSON payload, key field.  Anything short of all five
   is corruption. *)
let decode contents =
  match String.index_opt contents '\n' with
  | None -> Error "no header line"
  | Some nl -> (
    let header = String.sub contents 0 nl in
    match String.split_on_char ' ' header with
    | [ m; sum; len_s ] when m = magic -> (
      match int_of_string_opt len_s with
      | None -> Error "bad length field"
      | Some len ->
        if String.length contents <> nl + 1 + len + 1 then Error "length mismatch"
        else if contents.[String.length contents - 1] <> '\n' then Error "missing trailing newline"
        else
          let payload = String.sub contents (nl + 1) len in
          if fnv64 payload <> sum then Error "checksum mismatch"
          else (
            match Jsonx.parse payload with
            | Error e -> Error ("payload JSON: " ^ Jsonx.error_to_string e)
            | Ok j -> (
              match (Jsonx.string_member "key" j, Jsonx.member "value" j) with
              | Some key, Some value -> Ok (key, value)
              | _ -> Error "payload missing key/value")))
    | _ -> Error "bad header")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p d =
  try Unix.mkdir d 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (Unix.ENOENT, _, _) when Filename.dirname d <> d ->
    mkdir_p (Filename.dirname d);
    (* retry once now that the parents exist; a persistent ENOENT (e.g. a
       filesystem that refuses creation) must surface, not loop *)
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

(* fsync on a directory fd commits the rename itself; some filesystems
   reject fsync on directories, which costs durability of the *name*, not
   integrity — so failures are swallowed. *)
let fsync_dir d =
  match Unix.openfile d [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let quarantine_locked t name =
  let src = Filename.concat t.store_dir name in
  let dst = Filename.concat t.quarantine_dir name in
  (try Sys.rename src dst with Sys_error _ -> (try Sys.remove src with Sys_error _ -> ()));
  t.quarantined <- t.quarantined + 1

let open_store ~dir =
  mkdir_p dir;
  let quarantine_dir = Filename.concat dir "quarantine" in
  mkdir_p quarantine_dir;
  let t =
    { mu = Mutex.create (); store_dir = dir; quarantine_dir; index = Hashtbl.create 64;
      quarantined = 0 }
  in
  let loaded = ref 0 and tmp_removed = ref 0 in
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if is_tmp_file name then begin
        (try Sys.remove path with Sys_error _ -> ());
        incr tmp_removed
      end
      else if is_entry_file name then
        match decode (read_file path) with
        | Ok (key, _) ->
          Hashtbl.replace t.index key name;
          incr loaded
        | Error reason ->
          if Logx.would_log Logx.Warn then
            Logx.warn "serve.cache_quarantine"
              [ ("entry", Logx.Str name); ("reason", Logx.Str reason) ];
          quarantine_locked t name
        | exception Sys_error _ -> quarantine_locked t name)
    (Sys.readdir dir);
  (t, { loaded = !loaded; quarantined = t.quarantined; tmp_removed = !tmp_removed })

let dir t = t.store_dir
let entries t = Mutex.protect t.mu (fun () -> Hashtbl.length t.index)
let quarantined_total t = Mutex.protect t.mu (fun () -> t.quarantined)

let find t key =
  Mutex.protect t.mu (fun () ->
    match Hashtbl.find_opt t.index key with
    | None -> None
    | Some name -> (
      let path = Filename.concat t.store_dir name in
      match decode (read_file path) with
      | Ok (stored_key, value) when stored_key = key -> Some value
      | Ok _ ->
        (* FNV collision: someone else's entry lives under this name; a
           miss (the next fill overwrites it), never the wrong answer *)
        Hashtbl.remove t.index key;
        None
      | Error _ | (exception Sys_error _) ->
        Hashtbl.remove t.index key;
        quarantine_locked t name;
        None))

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let put ?(chaos_fail = false) t ~key value =
  Mutex.protect t.mu (fun () ->
    let name = entry_filename key in
    let contents = encode ~key value in
    let tmp = Filename.concat t.store_dir (tmp_prefix ^ name) in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    (try
       if chaos_fail then begin
         (* injected disk fault: half the bytes land, then the write
            "fails" — leaves the torn temp that recovery must sweep *)
         write_all fd (String.sub contents 0 (String.length contents / 2));
         Unix.close fd;
         raise (Sys_error "injected disk-write fault")
       end;
       write_all fd contents;
       Unix.fsync fd;
       Unix.close fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    Sys.rename tmp (Filename.concat t.store_dir name);
    fsync_dir t.store_dir;
    Hashtbl.replace t.index key name)
