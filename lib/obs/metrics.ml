(** Striped atomic counters and fixed-bucket histograms with
    merge-on-read. *)

(* Power of two; cells are picked by [domain id land (shards - 1)].
   More shards than typical worker counts, so two domains rarely share
   a cell. *)
let shards = 16

let shard_index () = (Domain.self () :> int) land (shards - 1)

type counter = { c_name : string; c_cells : int Atomic.t array }

(* Gauges are last-writer-wins, not accumulating, so one atomic cell is
   enough: striping would only complicate the merge (which cell holds
   the latest value?). *)
type gauge = { g_name : string; g_cell : float Atomic.t }

(* Histogram sums are kept in integer microunits (1e-6 of the observed
   value) so they can use the same lock-free fetch-and-add as counts;
   63-bit ints leave ~292k years of headroom for second-valued
   observations. *)
type histogram = {
  h_name : string;
  h_limits : float array;
  h_cells : int Atomic.t array array;  (** [shard].(bucket), +1 overflow *)
  h_sums : int Atomic.t array;  (** [shard], microunits *)
  h_lo : float Atomic.t;  (** smallest observation, [infinity] when empty *)
  h_hi : float Atomic.t;  (** largest, [neg_infinity] when empty *)
}

type registry = {
  r_lock : Mutex.t;
  r_counters : (string, counter) Hashtbl.t;
  r_gauges : (string, gauge) Hashtbl.t;
  r_histograms : (string, histogram) Hashtbl.t;
}

let create_registry () =
  {
    r_lock = Mutex.create ();
    r_counters = Hashtbl.create 16;
    r_gauges = Hashtbl.create 16;
    r_histograms = Hashtbl.create 16;
  }

let global = create_registry ()

let locked r f =
  Mutex.lock r.r_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.r_lock) f

let atomic_cells n = Array.init n (fun _ -> Atomic.make 0)

let counter ?(registry = global) name : counter =
  locked registry (fun () ->
      match Hashtbl.find_opt registry.r_counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_cells = atomic_cells shards } in
          Hashtbl.add registry.r_counters name c;
          c)

let incr ?(by = 1) (c : counter) =
  ignore (Atomic.fetch_and_add c.c_cells.(shard_index ()) by)

let value (c : counter) =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.c_cells

let gauge ?(registry = global) name : gauge =
  locked registry (fun () ->
      match Hashtbl.find_opt registry.r_gauges name with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_cell = Atomic.make 0.0 } in
          Hashtbl.add registry.r_gauges name g;
          g)

let set (g : gauge) v = Atomic.set g.g_cell v
let gauge_value (g : gauge) = Atomic.get g.g_cell

let default_buckets =
  [| 1e-4; 1e-3; 5e-3; 0.025; 0.1; 0.5; 1.0; 5.0; 30.0 |]

let histogram ?(registry = global) ?(buckets = default_buckets) name :
    histogram =
  locked registry (fun () ->
      match Hashtbl.find_opt registry.r_histograms name with
      | Some h -> h
      | None ->
          let limits = Array.copy buckets in
          let h =
            {
              h_name = name;
              h_limits = limits;
              h_cells =
                Array.init shards (fun _ ->
                    atomic_cells (Array.length limits + 1));
              h_sums = atomic_cells shards;
              h_lo = Atomic.make infinity;
              h_hi = Atomic.make neg_infinity;
            }
          in
          Hashtbl.add registry.r_histograms name h;
          h)

let bucket_of (h : histogram) v =
  let n = Array.length h.h_limits in
  let rec find i = if i >= n || v <= h.h_limits.(i) then i else find (i + 1) in
  find 0

(* The extremes stop moving after the first few observations, so one
   unstriped cell each is enough; the CAS retries only when another
   domain moved the same extreme in between. *)
let rec extend cell (beyond : float -> float -> bool) v =
  let cur = Atomic.get cell in
  if beyond v cur && not (Atomic.compare_and_set cell cur v) then
    extend cell beyond v

let observe (h : histogram) (v : float) =
  let s = shard_index () in
  ignore (Atomic.fetch_and_add h.h_cells.(s).(bucket_of h v) 1);
  ignore (Atomic.fetch_and_add h.h_sums.(s) (int_of_float (v *. 1e6)));
  extend h.h_lo (fun v lo -> v < lo) v;
  extend h.h_hi (fun v hi -> v > hi) v

type hist_snapshot = {
  h_buckets : float array;
  h_counts : int array;
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
}

let hist_snapshot (h : histogram) : hist_snapshot =
  let nbuckets = Array.length h.h_limits + 1 in
  let counts = Array.make nbuckets 0 in
  Array.iter
    (fun cells ->
      Array.iteri (fun i c -> counts.(i) <- counts.(i) + Atomic.get c) cells)
    h.h_cells;
  let sum_micro =
    Array.fold_left (fun acc s -> acc + Atomic.get s) 0 h.h_sums
  in
  {
    h_buckets = Array.copy h.h_limits;
    h_counts = counts;
    h_count = Array.fold_left ( + ) 0 counts;
    h_sum = float_of_int sum_micro /. 1e6;
    h_min = Atomic.get h.h_lo;
    h_max = Atomic.get h.h_hi;
  }

(* Interpolated quantile from the bucket counts, the way Prometheus's
   [histogram_quantile] reads the same data: find the bucket holding
   the q-th observation, then interpolate linearly inside it (the lower
   edge of the first bucket is 0, of the overflow bucket the last
   bound).  The overflow bucket has no upper edge, so its answer clamps
   to the last finite bound — the resolution limit of the chosen
   buckets, like Prometheus. *)
let quantile_of_snapshot (s : hist_snapshot) (q : float) : float =
  if s.h_count = 0 then nan
  else
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int s.h_count in
    let nlimits = Array.length s.h_buckets in
    let rec find i cum =
      if i >= nlimits then nlimits
      else
        let cum = cum + s.h_counts.(i) in
        if float_of_int cum >= rank && s.h_counts.(i) > 0 then i
        else find (i + 1) cum
    in
    let i = find 0 0 in
    if i >= nlimits then if nlimits = 0 then nan else s.h_buckets.(nlimits - 1)
    else
      let lo = if i = 0 then 0.0 else s.h_buckets.(i - 1) in
      let hi = s.h_buckets.(i) in
      let below = ref 0 in
      for j = 0 to i - 1 do
        below := !below + s.h_counts.(j)
      done;
      let inside = s.h_counts.(i) in
      if inside = 0 then hi
      else
        let frac = (rank -. float_of_int !below) /. float_of_int inside in
        lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 frac))

let quantile (h : histogram) (q : float) : float =
  quantile_of_snapshot (hist_snapshot h) q

let clamped_quantile (s : hist_snapshot) (q : float) : float =
  let v = quantile_of_snapshot s q in
  if Float.is_nan v then v else Float.min s.h_max (Float.max s.h_min v)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let snapshot (r : registry) : snapshot =
  let counters, gauges, histograms =
    locked r (fun () ->
        ( Hashtbl.fold (fun k c acc -> (k, c) :: acc) r.r_counters [],
          Hashtbl.fold (fun k g acc -> (k, g) :: acc) r.r_gauges [],
          Hashtbl.fold (fun k h acc -> (k, h) :: acc) r.r_histograms [] ))
  in
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters =
      List.sort by_name (List.map (fun (k, c) -> (k, value c)) counters);
    gauges =
      List.sort by_name (List.map (fun (k, g) -> (k, gauge_value g)) gauges);
    histograms =
      List.sort by_name
        (List.map (fun (k, h) -> (k, hist_snapshot h)) histograms);
  }

let reset (r : registry) =
  locked r (fun () ->
      Hashtbl.iter
        (fun _ c -> Array.iter (fun cell -> Atomic.set cell 0) c.c_cells)
        r.r_counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_cell 0.0) r.r_gauges;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (Array.iter (fun cell -> Atomic.set cell 0)) h.h_cells;
          Array.iter (fun s -> Atomic.set s 0) h.h_sums;
          Atomic.set h.h_lo infinity;
          Atomic.set h.h_hi neg_infinity)
        r.r_histograms)
