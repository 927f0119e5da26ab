(* Open-loop load generator for the serve workload.

   The schedule (due times and keys) is a pure function of the seed:
   Poisson arrivals at a fixed offered rate, keys drawn from a Zipf law
   over the key space through a seeded rank-to-key permutation.  The
   client sends each request when it falls due, whatever happened to the
   earlier ones, so a stalled server meets a growing queue instead of a
   slower client.  Latency is timed from the due time, which charges a
   stall to every request it delayed; how late the generator itself ran
   (send time minus due time) is reported separately.  At most
   [max_inflight] connections are open at once; a request due while all
   are busy waits in the client, and that wait counts in its latency. *)

type item = { due : float;  (** seconds from the start of the schedule *) key : int }

(* Cumulative Zipf weights over ranks 1..n, normalized to end at 1. *)
let zipf_cdf ~n ~s =
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* Smallest rank whose cumulative weight reaches [u]. *)
let zipf_rank cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let permutation st n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* [classes] are (share of traffic, keys in the class, Zipf exponent).
   Each arrival picks a class by share, then a key of that class by Zipf
   rank through a seeded rank-to-key permutation; exponent 0 draws keys
   uniformly (a class of a million keys then sends a fresh key nearly every
   time).  Keys are numbered globally, class by class. *)
let schedule ~seed ~rate ~duration ~classes =
  if rate <= 0. || duration <= 0. || Array.exists (fun (_, k, _) -> k < 1) classes then
    invalid_arg "Loadgen.schedule";
  let st = Random.State.make [| 0x10AD; seed |] in
  let total_share = Array.fold_left (fun acc (w, _, _) -> acc +. w) 0. classes in
  let offsets = Array.make (Array.length classes) 0 in
  for c = 1 to Array.length classes - 1 do
    let _, k, _ = classes.(c - 1) in
    offsets.(c) <- offsets.(c - 1) + k
  done;
  let draw =
    Array.map
      (fun (_, k, s) ->
        if s = 0. then fun () -> Random.State.int st k
        else
          let perm = permutation st k and cdf = zipf_cdf ~n:k ~s in
          fun () -> perm.(zipf_rank cdf (Random.State.float st 1.)))
      classes
  in
  let pick_class u =
    let rec go c acc =
      let w, _, _ = classes.(c) in
      let acc = acc +. (w /. total_share) in
      if u < acc || c = Array.length classes - 1 then c else go (c + 1) acc
    in
    go 0 0.
  in
  let rec go t acc =
    let t = t -. (Float.log (1. -. Random.State.float st 1.) /. rate) in
    if t >= duration then List.rev acc
    else
      let c = pick_class (Random.State.float st 1.) in
      go t ({ due = t; key = offsets.(c) + draw.(c) () } :: acc)
  in
  Array.of_list (go 0. [])

(* Canonical bytes of a schedule: hex floats, so equal strings mean equal
   schedules bit for bit. *)
let schedule_to_string items =
  let b = Buffer.create (Array.length items * 24) in
  Array.iter (fun it -> Buffer.add_string b (Printf.sprintf "%h %d\n" it.due it.key)) items;
  Buffer.contents b

(* ------------------------------ HTTP ------------------------------ *)

let loopback = Unix.inet_addr_loopback

let request_bytes ~meth ~path body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    meth path (String.length body) body

(* Status code and body of a complete response; status 0 when it does not
   parse. *)
let parse_response raw =
  let status =
    match String.index_opt raw ' ' with
    | Some i when String.length raw >= i + 4 -> (
      match int_of_string_opt (String.sub raw (i + 1) 3) with Some c -> c | None -> 0)
    | _ -> 0
  in
  let rec find i =
    if i + 4 > String.length raw then None
    else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
    else find (i + 1)
  in
  match find 0 with
  | Some j -> (status, String.sub raw j (String.length raw - j))
  | None -> (0, "")

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let connect_and_send ~port bytes =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (loopback, port));
    write_all fd bytes 0
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

(* One blocking GET, for the control endpoints (/healthz, /stats). *)
let get ~port ~path =
  match connect_and_send ~port (request_bytes ~meth:"GET" ~path "") with
  | Error e -> Error e
  | Ok fd ->
    let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
    let rec drain () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | k ->
        Buffer.add_subbytes buf chunk 0 k;
        drain ()
    in
    let r = try Ok (drain ()) with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e) in
    Unix.close fd;
    Result.map (fun () -> parse_response (Buffer.contents buf)) r

(* ---------------------------- open loop --------------------------- *)

type outcome = {
  idx : int;  (** position in the schedule *)
  key : int;
  due : float;  (** absolute monotonic seconds *)
  sent : float;
  finished : float;
  status : int;  (** 0 on a transport error or timeout *)
  body : string;
}

type conn = { fd : Unix.file_descr; c_idx : int; c_sent : float; buf : Buffer.t }

(* A request still unanswered this long after it was sent counts as failed
   (status 0). *)
let timeout_s = 30.

let run ~port ~max_inflight ~body ~t0 (items : item array) =
  let n = Array.length items in
  let results = Array.make n None in
  let inflight = ref [] and next = ref 0 in
  let chunk = Bytes.create 65536 in
  let now = Trace.now_mono_s in
  let finish c ~status ~body:b =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    let it = items.(c.c_idx) in
    results.(c.c_idx) <-
      Some
        {
          idx = c.c_idx;
          key = it.key;
          due = t0 +. it.due;
          sent = c.c_sent;
          finished = now ();
          status;
          body = b;
        }
  in
  while !next < n || !inflight <> [] do
    (* send everything due, up to the connection cap *)
    while !next < n && List.length !inflight < max_inflight && t0 +. items.(!next).due <= now () do
      let i = !next in
      incr next;
      let sent = now () in
      match connect_and_send ~port (request_bytes ~meth:"POST" ~path:"/eval" (body items.(i).key)) with
      | Ok fd ->
        Unix.set_nonblock fd;
        inflight := { fd; c_idx = i; c_sent = sent; buf = Buffer.create 512 } :: !inflight
      | Error _ ->
        let it = items.(i) in
        results.(i) <-
          Some { idx = i; key = it.key; due = t0 +. it.due; sent; finished = now (); status = 0; body = "" }
    done;
    let wait =
      if !next < n && List.length !inflight < max_inflight then
        Float.max 0. (t0 +. items.(!next).due -. now ())
      else 0.05
    in
    let fds = List.map (fun c -> c.fd) !inflight in
    let ready =
      if fds = [] then (
        if wait > 0. then Unix.sleepf wait;
        [])
      else
        match Unix.select fds [] [] wait with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    let t = now () in
    inflight :=
      List.filter
        (fun c ->
          if List.memq c.fd ready then begin
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 ->
              let status, b = parse_response (Buffer.contents c.buf) in
              finish c ~status ~body:b;
              false
            | k ->
              Buffer.add_subbytes c.buf chunk 0 k;
              true
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
            | exception Unix.Unix_error _ ->
              finish c ~status:0 ~body:"";
              false
          end
          else if t -. c.c_sent > timeout_s then (
            finish c ~status:0 ~body:"";
            false)
          else true)
        !inflight
  done;
  Array.map Option.get results

(* One outcome per line, for a client running in its own process: times
   are CLOCK_MONOTONIC seconds, which every process on the machine shares,
   as hex floats; the response body (one line of JSON) comes last. *)
let outcome_to_line o =
  let body = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) o.body in
  Printf.sprintf "%d %d %d %h %h %h %s\n" o.idx o.key o.status o.due o.sent o.finished body

let outcome_of_line line =
  Scanf.sscanf line "%d %d %d %h %h %h %[^\n]" (fun idx key status due sent finished body ->
      { idx; key; due; sent; finished; status; body })
