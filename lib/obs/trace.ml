(** Ambient span tracer: per-domain event buffers, Chrome trace-event
    JSON export. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts_ns : int;
  ev_dur_ns : int;
  ev_tid : int;
  ev_depth : int;
  ev_args : (string * string) list;
  ev_instant : bool;
}

(* One per (tracer, domain): appended to only by its owning domain, so
   event emission needs no lock.  Two storage modes: the unbounded list
   of the batch tracer ([--trace-out]), or — when the tracer was
   created with [ring_capacity] — a fixed circular buffer that
   overwrites its oldest event on overflow, which is what lets a
   daemon keep tracing forever and serve the recent window on demand.

   The ring is struct-of-arrays, preallocated in full when the buffer
   is created: the three int fields of slot [i] live at [3i..3i+2] of
   [b_ints] and its name/cat/args at [i] of the parallel arrays.
   Pushing an event therefore allocates nothing and writes
   sequentially, so the cache misses of cycling through the ring
   amortize over consecutive events instead of costing a pointer-chase
   into a scattered record per event; the int stores skip the write
   barrier and the name/cat stores are almost always old-to-old (span
   names are static strings).  Both properties matter: the daemon
   traces every request forever, and an allocated-record ring measurably
   slows a traced scan — each record is promoted to the major heap
   (it stays live well past the next minor collection) and evicts a
   cache line when overwritten. *)
type buf = {
  mutable b_tracer : t option;
      (** the tracer this buffer belongs to — the phys-eq key of the
          per-domain cache; first field so the hot-path check and the
          fields below share the buffer's first cache line *)
  mutable b_last_ns : int;
      (** domain-local monotonic floor for timestamps: raw clock
          readings are clamped to it, so spans nest correctly within
          this domain without touching a shared cache line per event *)
  mutable b_depth : int;  (** current span-stack depth *)
  mutable b_head : int;
      (** ring: next slot to write, [b_count mod b_cap] kept in step by
          {!record} rather than divided out on its hot path *)
  mutable b_count : int;  (** events recorded, evicted ones included *)
  b_epoch : int;  (** the owning tracer's epoch, cached *)
  b_tid : int;
  mutable b_events : event list;  (** unbounded mode only, reversed *)
  b_cap : int;  (** ring slots; 0 = unbounded mode *)
  b_ints : int array;  (** ring: ts, dur, depth(+instant bit) per slot *)
  b_names : string array;  (** ring: event names *)
  b_cats : string array;  (** ring: event categories *)
  b_args : (string * string) list array;  (** ring: event args *)
  mutable b_drained : int;  (** ring: [b_count] at the last {!drain} *)
  mutable b_lost : int;
      (** ring: events below [b_drained] that the ring evicted before a
          drain returned them *)
  mutable b_mark : event list;
      (** unbounded mode: [b_events] at the last {!drain} *)
}

and t = {
  epoch_ns : int;
  capacity : int option;  (** per-domain ring capacity; [None] = unbounded *)
  lock : Mutex.t;  (** guards [bufs] registration only *)
  bufs : (int, buf) Hashtbl.t;
}

let create ?ring_capacity () =
  let capacity =
    match ring_capacity with
    | Some c when c > 0 -> Some c
    | Some _ | None -> None
  in
  {
    epoch_ns = Clock.raw_ns ();
    capacity;
    lock = Mutex.create ();
    bufs = Hashtbl.create 8;
  }

let ring_capacity t = t.capacity

let global_tracer : t option Atomic.t = Atomic.make None
let set_global t = Atomic.set global_tracer t
let global () = Atomic.get global_tracer
let enabled () = Option.is_some (Atomic.get global_tracer)

(* The current domain's buffer for the current tracer, cached in DLS.
   The DLS value is the buffer ITSELF, not a reference to one: the hot
   path is then [DLS array -> buf record], two cache lines, with the
   phys-eq tracer check, the clock floor and the ring cursor all on the
   buffer's first line.  An earlier [(t * buf) option ref] cache cost
   two more dependent loads per event — measurable on a traced scan,
   where the hundreds of microseconds of real work between spans evict
   the tracer state from L1 every time. *)
let dummy_buf =
  {
    b_tracer = None;
    b_last_ns = 0;
    b_depth = 0;
    b_head = 0;
    b_count = 0;
    b_epoch = 0;
    b_tid = 0;
    b_events = [];
    b_cap = 0;
    b_ints = [||];
    b_names = [||];
    b_cats = [||];
    b_args = [||];
    b_drained = 0;
    b_lost = 0;
    b_mark = [];
  }

let dls_buf : buf Domain.DLS.key = Domain.DLS.new_key (fun () -> dummy_buf)

let register (t : t) : buf =
  let tid = (Domain.self () :> int) in
  Mutex.lock t.lock;
  let b =
    match Hashtbl.find_opt t.bufs tid with
    | Some b -> b
    | None ->
        let cap = match t.capacity with Some c -> c | None -> 0 in
        let b =
          {
            b_tracer = Some t;
            b_last_ns = t.epoch_ns;
            b_depth = 0;
            b_head = 0;
            b_count = 0;
            b_epoch = t.epoch_ns;
            b_tid = tid;
            b_events = [];
            b_cap = cap;
            b_ints = Array.make (3 * cap) 0;
            b_names = Array.make cap "";
            b_cats = Array.make cap "";
            b_args = Array.make cap [];
            b_drained = 0;
            b_lost = 0;
            b_mark = [];
          }
        in
        Hashtbl.add t.bufs tid b;
        b
  in
  Mutex.unlock t.lock;
  Domain.DLS.set dls_buf b;
  b

let buffer_for (t : t) : buf =
  let b = Domain.DLS.get dls_buf in
  match b.b_tracer with Some t' when t' == t -> b | _ -> register t

(* [now_mono b] reads the clock clamped to this buffer's floor: all
   state it touches beyond the gettimeofday call is the [buf] record
   already in cache from the surrounding push, so a timestamp costs no
   shared-line traffic (cf. [Clock.now_ns]'s global high-water mark). *)
let now_mono b =
  let t = Clock.raw_ns () in
  if t > b.b_last_ns then begin
    b.b_last_ns <- t;
    t
  end
  else b.b_last_ns

let record b ~name ~cat ~ts ~dur ~depth ~args ~instant =
  let cap = b.b_cap in
  if cap = 0 then
    b.b_events <-
      {
        ev_name = name;
        ev_cat = cat;
        ev_ts_ns = ts;
        ev_dur_ns = dur;
        ev_tid = b.b_tid;
        ev_depth = depth;
        ev_args = args;
        ev_instant = instant;
      }
      :: b.b_events
  else begin
    (* overwrite the oldest slot once full: the window always holds the
       newest [cap] events, oldest evicted first.  [unsafe_set] is
       justified: [i < cap] by construction of [b_head] and the arrays
       were allocated [cap] (and [3 * cap]) long. *)
    let i = b.b_head in
    let j = 3 * i in
    Array.unsafe_set b.b_ints j ts;
    Array.unsafe_set b.b_ints (j + 1) dur;
    Array.unsafe_set b.b_ints (j + 2)
      ((depth lsl 1) lor Bool.to_int instant);
    Array.unsafe_set b.b_names i name;
    Array.unsafe_set b.b_cats i cat;
    Array.unsafe_set b.b_args i args;
    let h = i + 1 in
    b.b_head <- (if h = cap then 0 else h)
  end;
  b.b_count <- b.b_count + 1

(* The ring's events numbered [lo, hi) that it still holds, oldest
   first.  Event [k] sits in slot [k mod cap]: [record] writes slot
   [b_head], and nothing else moves the head, so [b_head = b_count mod
   cap].  Pushes concurrent with the read can only overwrite the oldest
   slots of a window as long as the ring, which the (single-digit-Hz)
   admin poller tolerates. *)
let ring_events (b : buf) ~lo ~hi : event list =
  let cap = b.b_cap in
  let lo = max lo (hi - cap) in
  List.init (max 0 (hi - lo)) (fun d ->
      let i = (lo + d) mod cap in
      let j = 3 * i in
      let packed = b.b_ints.(j + 2) in
      {
        ev_name = b.b_names.(i);
        ev_cat = b.b_cats.(i);
        ev_ts_ns = b.b_ints.(j);
        ev_dur_ns = b.b_ints.(j + 1);
        ev_tid = b.b_tid;
        ev_depth = packed lsr 1;
        ev_args = b.b_args.(i);
        ev_instant = packed land 1 = 1;
      })

let buf_events (b : buf) : event list =
  if b.b_cap = 0 then List.rev b.b_events
  else ring_events b ~lo:0 ~hi:b.b_count

let with_span ?(args = []) ~cat name (f : unit -> 'a) : 'a =
  match Atomic.get global_tracer with
  | None -> f ()
  | Some t ->
      let b = buffer_for t in
      let depth = b.b_depth in
      b.b_depth <- depth + 1;
      let t0 = now_mono b in
      (* a hand-rolled Fun.protect: this wrapper runs once per traced
         event on the scan's hot paths, and the closure + finaliser
         machinery of the real one is measurable there — as is a
         [finish] closure, hence the [result] detour instead *)
      let res =
        match f () with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      let dur = now_mono b - t0 in
      b.b_depth <- depth;
      record b ~name ~cat ~ts:(t0 - b.b_epoch) ~dur ~depth ~args
        ~instant:false;
      (match res with
      | Ok v -> v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let instant ?(args = []) ~cat name =
  match Atomic.get global_tracer with
  | None -> ()
  | Some t ->
      let b = buffer_for t in
      record b ~name ~cat ~ts:(now_mono b - b.b_epoch) ~dur:0
        ~depth:b.b_depth ~args ~instant:true

let sort_events evs =
  List.sort
    (fun a b ->
      let c = compare a.ev_ts_ns b.ev_ts_ns in
      if c <> 0 then c else compare a.ev_tid b.ev_tid)
    evs

let all_bufs (t : t) =
  Mutex.lock t.lock;
  let bufs = Hashtbl.fold (fun _ b acc -> b :: acc) t.bufs [] in
  Mutex.unlock t.lock;
  bufs

let events (t : t) : event list =
  sort_events (List.concat_map buf_events (all_bufs t))

(* Ring events numbered [b_drained, hi - cap) left the ring before a
   drain returned them. *)
let unserved (b : buf) ~hi = max 0 (hi - b.b_cap - b.b_drained)

(* A read: a buffer only moves its cursor, so [events] and [write]
   still see everything a drain returned.  The cursor is read once and
   the events are taken up to it — by event number in a ring, up to the
   cell the last drain started from in a list — so an event recorded
   during a drain is served by exactly one of two consecutive drains. *)
let drain_buf (b : buf) : event list =
  if b.b_cap = 0 then begin
    let mark = b.b_mark and l = b.b_events in
    let rec since acc = function
      | cell when cell == mark -> acc
      | e :: rest -> since (e :: acc) rest
      | [] -> acc
    in
    b.b_mark <- l;
    since [] l
  end
  else begin
    let hi = b.b_count in
    let evs = ring_events b ~lo:b.b_drained ~hi in
    b.b_lost <- b.b_lost + unserved b ~hi;
    b.b_drained <- hi;
    evs
  end

(* under the registration lock, which also keeps two drains from
   interleaving their cursor updates *)
let drain (t : t) : event list =
  Mutex.lock t.lock;
  let evs = Hashtbl.fold (fun _ b acc -> drain_buf b @ acc) t.bufs [] in
  Mutex.unlock t.lock;
  sort_events evs

let event_count (t : t) : int =
  Mutex.lock t.lock;
  let n = Hashtbl.fold (fun _ b acc -> acc + b.b_count) t.bufs 0 in
  Mutex.unlock t.lock;
  n

let dropped (t : t) : int =
  Mutex.lock t.lock;
  let n =
    Hashtbl.fold
      (fun _ b acc ->
        if b.b_cap = 0 then acc
        else acc + b.b_lost + unserved b ~hi:b.b_count)
      t.bufs 0
  in
  Mutex.unlock t.lock;
  n

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON.                                            *)

let add_args buf args =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":\"%s\"" (Log.json_escape k) (Log.json_escape v)))
    args;
  Buffer.add_string buf "}"

let events_to_chrome_json ?pid (evs : event list) : string =
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.ev_tid) evs)
  in
  let buf = Buffer.create (4096 + (160 * List.length evs)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let comma () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  (* thread-name metadata so the viewer labels each lane "domain N" *)
  List.iter
    (fun tid ->
      comma ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
           pid tid tid))
    tids;
  List.iter
    (fun e ->
      comma ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f"
           (Log.json_escape e.ev_name) (Log.json_escape e.ev_cat)
           (if e.ev_instant then "i" else "X")
           pid e.ev_tid (Clock.ns_to_us e.ev_ts_ns));
      if e.ev_instant then Buffer.add_string buf ",\"s\":\"t\""
      else
        Buffer.add_string buf
          (Printf.sprintf ",\"dur\":%.3f" (Clock.ns_to_us e.ev_dur_ns));
      if e.ev_args <> [] then begin
        Buffer.add_string buf ",\"args\":";
        add_args buf e.ev_args
      end;
      Buffer.add_string buf "}")
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let to_chrome_json ?pid (t : t) : string = events_to_chrome_json ?pid (events t)

let write ?pid (t : t) ~file =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome_json ?pid t))
