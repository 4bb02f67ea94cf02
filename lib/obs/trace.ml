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

(* One per (tracer, domain): written only by its owning domain, so
   event emission needs no lock.  Event [k] sits in slot [k mod
   capacity], the capacity being the arrays' length.  When the slots
   are full, a tracer created with [ring_capacity] overwrites its
   oldest event, which is what lets a daemon keep tracing forever and
   serve the recent window on demand; any other tracer doubles the
   arrays, so the batch [--trace-out] keeps every event.

   The buffer is struct-of-arrays: the three int fields of slot [i]
   live at [3i..3i+2] of [b_ints] and its name/cat/args at [i] of the
   parallel arrays.  Pushing an event therefore allocates nothing and
   writes sequentially, so the cache misses of cycling through the ring
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
      (** next slot to write, [b_count mod capacity] kept in step by
          {!record} rather than divided out on its hot path *)
  mutable b_count : int;  (** events recorded, evicted ones included *)
  b_epoch : int;  (** the owning tracer's epoch, cached *)
  b_tid : int;
  mutable b_ints : int array;  (** ts, dur, depth(+instant bit) per slot *)
  mutable b_names : string array;  (** event names *)
  mutable b_cats : string array;  (** event categories *)
  mutable b_args : (string * string) list array;  (** event args *)
  mutable b_drained : int;  (** [b_count] at the last {!drain} *)
  mutable b_lost : int;
      (** events below [b_drained] that the ring evicted before a
          drain returned them *)
}

and t = {
  epoch_ns : int;
  capacity : int option;  (** per-domain ring capacity; [None] = unbounded *)
  lock : Mutex.t;  (** guards [bufs], array growth and every read *)
  bufs : (int, buf) Hashtbl.t;
}

(* An unbounded buffer's slots at registration.  Small, because the
   scan engine spawns fresh worker domains for every parallel phase and
   each one registers a buffer. *)
let initial_slots = 256

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

let make_buf tracer ~epoch ~tid cap =
  {
    b_tracer = tracer;
    b_last_ns = epoch;
    b_depth = 0;
    b_head = 0;
    b_count = 0;
    b_epoch = epoch;
    b_tid = tid;
    b_ints = Array.make (3 * cap) 0;
    b_names = Array.make cap "";
    b_cats = Array.make cap "";
    b_args = Array.make cap [];
    b_drained = 0;
    b_lost = 0;
  }

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
let dummy_buf = make_buf None ~epoch:0 ~tid:0 0

let dls_buf : buf Domain.DLS.key = Domain.DLS.new_key (fun () -> dummy_buf)

let register (t : t) : buf =
  let tid = (Domain.self () :> int) in
  Mutex.lock t.lock;
  let b =
    match Hashtbl.find_opt t.bufs tid with
    | Some b -> b
    | None ->
        let b =
          make_buf (Some t) ~epoch:t.epoch_ns ~tid
            (Option.value t.capacity ~default:initial_slots)
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

(* The slots are full.  A ring wraps to its oldest slot.  An unbounded
   buffer doubles its arrays and swaps them in under the tracer's lock,
   which every reader holds, so no reader sees a half-grown buffer;
   only this domain writes the slots, so the copy needs no lock. *)
let wrap_or_grow b =
  match b.b_tracer with
  | Some { capacity = None; lock; _ } ->
      let cap = Array.length b.b_names in
      let double a fill =
        let a' = Array.make (2 * Array.length a) fill in
        Array.blit a 0 a' 0 (Array.length a);
        a'
      in
      let ints = double b.b_ints 0 and names = double b.b_names "" in
      let cats = double b.b_cats "" and args = double b.b_args [] in
      Mutex.lock lock;
      b.b_ints <- ints;
      b.b_names <- names;
      b.b_cats <- cats;
      b.b_args <- args;
      Mutex.unlock lock;
      b.b_head <- cap
  | Some _ | None -> b.b_head <- 0

(* The slot at [b_head] is always free to write, so the event is
   written first, through the arrays read once, and the capacity is
   checked after; wrapping and growing stay off the hot path.
   [unsafe_set] is justified: [b_head] is below the capacity, and
   [b_ints] is three times as long. *)
let record b ~name ~cat ~ts ~dur ~depth ~args ~instant =
  let i = b.b_head and ints = b.b_ints and names = b.b_names in
  let j = 3 * i in
  Array.unsafe_set ints j ts;
  Array.unsafe_set ints (j + 1) dur;
  Array.unsafe_set ints (j + 2) ((depth lsl 1) lor Bool.to_int instant);
  Array.unsafe_set names i name;
  Array.unsafe_set b.b_cats i cat;
  Array.unsafe_set b.b_args i args;
  let h = i + 1 in
  if h < Array.length names then b.b_head <- h else wrap_or_grow b;
  b.b_count <- b.b_count + 1

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

(* Events numbered [b_drained, hi - capacity) left a ring before a
   drain returned them; never any in an unbounded buffer. *)
let unserved (b : buf) ~hi = max 0 (hi - Array.length b.b_names - b.b_drained)

(* [f bufs iter] under the lock, so no buffer grows mid-read: [bufs]
   holds, by tid, the buffers with events in the window, and [iter g]
   calls [g buf slot] on each event in start order.  A buffer's window
   is its events numbered [lo, hi) that it still holds: [hi] is its
   count, read once, and [lo] is 0 or, with [~drain], the drain cursor,
   which moves to [hi], so each event goes to exactly one drain.  The
   sort keys, one int per event ([slot lsl bits lor buffer]), start in
   (tid, recording) order, which the stable sort keeps for equal
   timestamps.  A ring's pushes concurrent with a read may overwrite the
   window's oldest slots, which the (single-digit-Hz) poller tolerates. *)
let read t ~drain f =
  Mutex.protect t.lock @@ fun () ->
  let wins =
    Hashtbl.fold
      (fun _ b acc ->
        let hi = b.b_count and cap = Array.length b.b_names in
        let lo = max (if drain then b.b_drained else 0) (hi - cap) in
        if drain then begin
          b.b_lost <- b.b_lost + unserved b ~hi;
          b.b_drained <- hi
        end;
        if hi > lo then (b, lo, hi) :: acc else acc)
      t.bufs []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a.b_tid b.b_tid)
  in
  let bufs = Array.of_list (List.map (fun (b, _, _) -> b) wins) in
  let rec bits n = if n <= 1 then 0 else 1 + bits ((n + 1) / 2) in
  let bits = bits (Array.length bufs) in
  let mask = (1 lsl bits) - 1 in
  let keys =
    Array.concat
      (List.mapi
         (fun i (b, lo, hi) ->
           Array.init (hi - lo) (fun d ->
               (((lo + d) mod Array.length b.b_names) lsl bits) lor i))
         wins)
  in
  let ts k = bufs.(k land mask).b_ints.(3 * (k lsr bits)) in
  Array.stable_sort (fun a b -> Int.compare (ts a) (ts b)) keys;
  f bufs (fun g -> Array.iter (fun k -> g bufs.(k land mask) (k lsr bits)) keys)

let event_list _ iter =
  let evs = ref [] in
  iter (fun b i ->
      let packed = b.b_ints.((3 * i) + 2) in
      evs :=
        {
          ev_name = b.b_names.(i);
          ev_cat = b.b_cats.(i);
          ev_ts_ns = b.b_ints.(3 * i);
          ev_dur_ns = b.b_ints.((3 * i) + 1);
          ev_tid = b.b_tid;
          ev_depth = packed lsr 1;
          ev_args = b.b_args.(i);
          ev_instant = packed land 1 = 1;
        }
        :: !evs);
  List.rev !evs

let events (t : t) : event list = read t ~drain:false event_list

(* A read: a buffer only moves its cursor, so [events] and [write]
   still see everything a drain returned. *)
let drain (t : t) : event list = read t ~drain:true event_list

let event_count (t : t) : int =
  Mutex.lock t.lock;
  let n = Hashtbl.fold (fun _ b acc -> acc + b.b_count) t.bufs 0 in
  Mutex.unlock t.lock;
  n

let dropped (t : t) : int =
  Mutex.lock t.lock;
  let n =
    Hashtbl.fold
      (fun _ b acc -> acc + b.b_lost + unserved b ~hi:b.b_count)
      t.bufs 0
  in
  Mutex.unlock t.lock;
  n

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON, read straight from the slots.  It is built
   with [Buffer] calls, not [Printf]: formatting is most of the cost of
   writing a trace.                                                    *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  if String.for_all (fun c -> c >= ' ' && c <> '"' && c <> '\\') s then
    Buffer.add_string buf s
  else Buffer.add_string buf (Log.json_escape s);
  Buffer.add_char buf '"'

(* [ns] (never negative) in microseconds, exactly, to three decimals *)
let add_us buf ns =
  Buffer.add_string buf (string_of_int (ns / 1000));
  let f = ns mod 1000 in
  Buffer.add_string buf (if f < 10 then ".00" else if f < 100 then ".0" else ".");
  Buffer.add_string buf (string_of_int f)

(* The one writer.  It hands [spill] the buffer after each event, so
   that [write] can pass the document to its channel piece by piece
   instead of holding all of it. *)
let chrome_json ?pid ~drain ~spill (t : t) : Buffer.t =
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  read t ~drain @@ fun bufs iter ->
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let comma () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  (* thread-name metadata so the viewer labels each lane "domain N" *)
  Array.iter
    (fun b ->
      comma ();
      Printf.bprintf buf
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
        pid b.b_tid b.b_tid)
    bufs;
  let pid_tid = Printf.sprintf ",\"pid\":%d,\"tid\":" pid in
  iter (fun b i ->
      let instant = b.b_ints.((3 * i) + 2) land 1 = 1 in
      comma ();
      Buffer.add_string buf "{\"name\":";
      add_json_string buf b.b_names.(i);
      Buffer.add_string buf ",\"cat\":";
      add_json_string buf b.b_cats.(i);
      Buffer.add_string buf (if instant then ",\"ph\":\"i\"" else ",\"ph\":\"X\"");
      Buffer.add_string buf pid_tid;
      Buffer.add_string buf (string_of_int b.b_tid);
      Buffer.add_string buf ",\"ts\":";
      add_us buf b.b_ints.(3 * i);
      if instant then Buffer.add_string buf ",\"s\":\"t\""
      else begin
        Buffer.add_string buf ",\"dur\":";
        add_us buf b.b_ints.((3 * i) + 1)
      end;
      List.iteri
        (fun n (k, v) ->
          Buffer.add_string buf (if n = 0 then ",\"args\":{" else ",");
          add_json_string buf k;
          Buffer.add_char buf ':';
          add_json_string buf v)
        b.b_args.(i);
      Buffer.add_string buf (if b.b_args.(i) = [] then "}" else "}}");
      spill buf);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  buf

let to_chrome_json ?pid ?(drain = false) t =
  Buffer.contents (chrome_json ?pid ~drain ~spill:ignore t)

let write ?pid (t : t) ~file =
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  let spill buf =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  spill (chrome_json ?pid ~drain:false ~spill t)
