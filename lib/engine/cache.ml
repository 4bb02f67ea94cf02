(** Digest-keyed incremental result cache: in-memory table, optionally
    mirrored to a directory of marshalled entries. *)

type t = {
  cache_dir : string option;
  mem : (string, string) Hashtbl.t;
  lock : Mutex.t;
  (* lock-free so a hot lookup path never serializes on the table lock
     just to count itself, and counts are exact under any [--jobs] *)
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
}

(* plain values: a [lazy] forced from two worker domains at once raises
   [CamlinternalLazy.Undefined] *)
let m_hits = Wap_obs.Metrics.counter "engine.cache.hits"
let m_misses = Wap_obs.Metrics.counter "engine.cache.misses"

let create ?dir () =
  Option.iter
    (fun d ->
      (* a concurrent creator (another fleet worker) may win the mkdir *)
      (try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ());
      if not (Sys.is_directory d) then raise (Sys_error (d ^ ": Not a directory")))
    dir;
  {
    cache_dir = dir;
    mem = Hashtbl.create 64;
    lock = Mutex.create ();
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
  }

let key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let disk_path t k =
  Option.map (fun d -> Filename.concat d (k ^ ".wapc")) t.cache_dir

(* On-disk entry frame: magic, hex digest of the payload, payload.
   The digest makes truncation, torn concurrent writes, bit rot and
   foreign files (anything another tool dropped in the directory) all
   detectable on read — a frame that does not verify is handled exactly
   like a missing entry, never surfaced to the caller. *)
let disk_magic = "WAPC1\n"
let digest_hex_len = 32  (* Digest.to_hex is a 32-char MD5 *)

let frame payload =
  String.concat ""
    [ disk_magic; Digest.to_hex (Digest.string payload); payload ]

let unframe (s : string) : string option =
  let header = String.length disk_magic + digest_hex_len in
  if
    String.length s >= header
    && String.sub s 0 (String.length disk_magic) = disk_magic
  then begin
    let claimed = String.sub s (String.length disk_magic) digest_hex_len in
    let payload = String.sub s header (String.length s - header) in
    if String.equal claimed (Digest.to_hex (Digest.string payload)) then
      Some payload
    else None
  end
  else None

let remove_file path = try Sys.remove path with Sys_error _ -> ()

(* A frame that fails to verify is deleted so the cache heals itself:
   the next store rewrites the entry instead of tripping over the
   corpse on every lookup. *)
let read_file path =
  match
    (try
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> Some (really_input_string ic (in_channel_length ic)))
     with Sys_error _ | End_of_file -> None)
  with
  | None -> None
  | Some raw -> (
      match unframe raw with
      | Some _ as payload -> payload
      | None ->
          remove_file path;
          None)

let write_file path contents =
  (* Atomic publish: write a unique same-directory temp file, then
     [Sys.rename] into place, so a concurrent reader (another fleet
     worker on the same --cache-dir) sees either the old complete entry
     or the new complete entry, never a torn one.  [close_out] is
     inside the [try] on purpose — it performs the final flush, and a
     swallowed flush error (disk full) would otherwise let a truncated
     temp file get renamed over a good entry. *)
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Hashtbl.hash (Domain.self ()))
  in
  try
    let oc = open_out_bin tmp in
    (try
       output_string oc (frame contents);
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp path
  with Sys_error _ | Unix.Unix_error _ -> remove_file tmp

let remember t k s = locked t (fun () -> Hashtbl.replace t.mem k s)

let find_raw t k : string option =
  match locked t (fun () -> Hashtbl.find_opt t.mem k) with
  | Some _ as hit -> hit
  | None -> (
      match Option.bind (disk_path t k) read_file with
      | Some s as hit ->
          remember t k s;
          hit
      | None -> None)

let store_raw t k v =
  remember t k v;
  match disk_path t k with Some path -> write_file path v | None -> ()

let invalidate t ~key:k =
  locked t (fun () -> Hashtbl.remove t.mem k);
  match disk_path t k with Some path -> remove_file path | None -> ()

let count_miss t k =
  Atomic.incr t.n_misses;
  Wap_obs.Metrics.incr m_misses;
  Wap_obs.Trace.instant ~cat:"cache" "cache.miss"
    ~args:[ ("key", String.sub k 0 (min 12 (String.length k))) ]

let find t ~key:k : 'a option =
  match find_raw t k with
  | Some s -> (
      (* The frame digest catches disk-level damage, but an entry can
         still hold a marshalled value of another shape (a key collision
         across format eras, a foreign writer that produced a valid
         frame).  [Marshal.from_string] raising must read as a miss —
         and invalidate the poisoned entry — rather than kill the scan. *)
      match (Marshal.from_string s 0 : 'a) with
      | v ->
          Atomic.incr t.n_hits;
          Wap_obs.Metrics.incr m_hits;
          Wap_obs.Trace.instant ~cat:"cache" "cache.hit"
            ~args:[ ("key", String.sub k 0 (min 12 (String.length k))) ];
          Some v
      | exception _ ->
          invalidate t ~key:k;
          count_miss t k;
          None)
  | None ->
      count_miss t k;
      None

let store t ~key:k v = store_raw t k (Marshal.to_string v [])

let memoize t ~key:k (compute : unit -> 'a) : 'a * bool =
  match find t ~key:k with
  | Some v -> (v, true)
  | None ->
      let v = compute () in
      store t ~key:k v;
      (v, false)

let hits t = Atomic.get t.n_hits
let misses t = Atomic.get t.n_misses
