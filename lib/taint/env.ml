(** Taint environments: a flow-sensitive map from variable names to
    per-spec taint vectors.

    Arrays and objects are tracked coarsely by their base variable, which
    matches the granularity of the original WAP analyzer: if any element
    of [$a] is tainted, [$a] is tainted.

    A taint value is a sparse vector indexed by {e spec id} (the
    position of a detector spec in the active set): component [i]
    present means "tainted for spec [i], with this origin".  The empty
    vector is clean for every spec.  Components never interact across
    ids, so a fused run over N specs computes, component by component,
    exactly what N independent single-spec runs would.

    The vector is stored as runs: ranges of consecutive ids whose
    components are one physical origin, sorted by id.  A value
    tainted the same way for every spec is one run, and every operation
    walks runs, not ids, so it pays for what differs between specs;
    when every id has its own origin a run is one id, and the walks are
    the sorted merges of a plain [(id, origin)] list. *)

type taint =
  | Clean
  | Run of { lo : int; hi : int; o : Trace.origin; rest : taint }
      (** ids [lo..hi] hold [o]; the runs of [rest] start above [hi] *)

let clean = Clean
let is_clean t = t == Clean

(* The run [lo..hi] -> [o] in front of [rest], merged into [rest]'s
   first run when that one continues it with the same origin. *)
let cons lo hi o rest =
  match rest with
  | Run r when r.lo = hi + 1 && r.o == o -> Run { r with lo }
  | _ -> Run { lo; hi; o; rest }

let rec find t id =
  match t with
  | Clean -> None
  | Run r -> if id < r.lo then None else if id <= r.hi then Some r.o else find r.rest id

let rec iter f = function
  | Clean -> ()
  | Run r ->
      f r.lo r.hi r.o;
      iter f r.rest

(* An ascending id list as its maximal ranges of consecutive ids. *)
let rec ranges = function
  | [] -> []
  | lo :: tl ->
      let rec extend hi = function
        | x :: tl when x = hi + 1 -> extend x tl
        | tl -> (lo, hi) :: ranges tl
      in
      extend lo tl

let of_origin ~ids o =
  List.fold_right (fun (lo, hi) rest -> Run { lo; hi; o; rest }) (ranges ids) Clean

let of_list (l : (int * Trace.origin) list) =
  List.fold_right (fun (id, o) rest -> cons id id o rest) l Clean

(* [restrict] and [without] over {!ranges}. *)
let rec restrict_ranges t rs =
  match (t, rs) with
  | Clean, _ | _, [] -> Clean
  | Run r, (a, b) :: rs' ->
      if b < r.lo then restrict_ranges t rs'
      else if r.hi < a then restrict_ranges r.rest rs
      else
        (* the overlap, then whichever of the two ends first moves on *)
        let rest = if r.hi <= b then restrict_ranges r.rest rs else restrict_ranges t rs' in
        Run { lo = max r.lo a; hi = min r.hi b; o = r.o; rest }

(* [t] itself when no run loses an id *)
let rec without_ranges t rs =
  match (t, rs) with
  | Clean, _ | _, [] -> t
  | Run r, (a, b) :: rs' ->
      if b < r.lo then without_ranges t rs'
      else if r.hi < a then
        let rest = without_ranges r.rest rs in
        if rest == r.rest then t else Run { r with rest }
      else
        let rest =
          if r.hi > b then without_ranges (Run { r with lo = b + 1 }) rs'
          else without_ranges r.rest rs
        in
        if r.lo < a then Run { r with hi = a - 1; rest } else rest

let restrict t ids = restrict_ranges t (ranges ids)
let without t ids = without_ranges t (ranges ids)

(* [f] (always pure here) runs once per run, and only once for
   consecutive runs of one physical origin. *)
let map_origins f t =
  let rec go prev prev_r = function
    | Clean -> Clean
    | Run r ->
        let o = if r.o == prev then prev_r else f r.o in
        Run { r with o; rest = go r.o o r.rest }
  in
  match t with
  | Clean -> Clean
  | Run r ->
      let o = f r.o in
      Run { r with o; rest = go r.o o r.rest }

(* Merge two vectors with one function per case, run against run,
   splitting a run where the other side's runs begin or end; [both] is
   memoized on physical equality of its operand pair, so runs of one
   origin meeting runs of another combine once. *)
let combine ~both a b =
  let prev = ref None in
  let both oa ob =
    match !prev with
    | Some (pa, pb, r) when pa == oa && pb == ob -> r
    | _ ->
        let r = both oa ob in
        prev := Some (oa, ob, r);
        r
  in
  let rec go a b =
    match (a, b) with
    | Clean, t | t, Clean -> t
    | Run ra, Run rb ->
        if ra.hi < rb.lo then cons ra.lo ra.hi ra.o (go ra.rest b)
        else if rb.hi < ra.lo then cons rb.lo rb.hi rb.o (go a rb.rest)
        else if ra.lo < rb.lo then cons ra.lo (rb.lo - 1) ra.o (go (Run { ra with lo = rb.lo }) b)
        else if rb.lo < ra.lo then cons rb.lo (ra.lo - 1) rb.o (go a (Run { rb with lo = ra.lo }))
        else
          let hi = min ra.hi rb.hi in
          let o = both ra.o rb.o in
          let a' = if ra.hi > hi then Run { ra with lo = hi + 1 } else ra.rest in
          let b' = if rb.hi > hi then Run { rb with lo = hi + 1 } else rb.rest in
          cons ra.lo hi o (go a' b')
  in
  go a b

(** [overlay a b]: union of two vectors; where both have a component,
    [a]'s wins.  Used to assemble disjoint id groups (e.g. the specs for
    which a name is a superglobal vs the rest). *)
let overlay a b = combine ~both:(fun oa _ -> oa) a b

(** Join for control-flow merges: taint wins (may-analysis).  When both
    sides are tainted we keep the left origin but merge guard evidence,
    so a guard present on only one path does not count. *)
let join a b =
  if a == b then a
  else
    combine a b ~both:(fun o1 o2 ->
        if o1 == o2 then o1
        else
          { o1 with
            Trace.guards = Trace.inter_names o1.Trace.guards o2.Trace.guards })

(** Join used when combining operands of one expression (concatenation,
    arithmetic): evidence from both operands accumulates. *)
let join_operands a b =
  combine a b ~both:(fun o1 o2 ->
      if o1 == o2 then o1
      else
        {
          o1 with
          Trace.through = Trace.union_names o1.Trace.through o2.Trace.through;
          Trace.guards = Trace.union_names o1.Trace.guards o2.Trace.guards;
        })

module M = Map.Make (String)

type t = taint M.t

let empty : t = M.empty
let get env v = match M.find_opt v env with Some t -> t | None -> Clean
let set env v t : t = M.add v t env
let remove env v : t = M.remove v env

(** Pointwise join of two environments (after an if/else, loop, ...). *)
let merge (a : t) (b : t) : t =
  if a == b then a
  else
    M.merge
      (fun _ ta tb ->
        match (ta, tb) with
        | Some ta, Some tb -> Some (join ta tb)
        | Some t, None | None, Some t -> Some t
        | None, None -> None)
      a b

(* The ids of [ids] (ascending) that [a] and [b] both taint or both
   leave clean; [ids] itself when that is all of them.  One walk over
   the id list and the two run lists. *)
let rec same_presence ids a b =
  let rec past id = function Run r when r.hi < id -> past id r.rest | t -> t in
  let covers id = function Run r -> r.lo <= id | Clean -> false in
  match ids with
  | [] -> []
  | id :: tl ->
      let a = past id a and b = past id b in
      let tl' = same_presence tl a b in
      if covers id a <> covers id b then tl' else if tl' == tl then ids else id :: tl'

(** The ids of [ids] (ascending) whose set of tainted variables differs
    between [a] and [b]: one walk over both environments in key order,
    stopping once every id has moved. *)
let changed ids (a : t) (b : t) =
  if a == b then []
  else
    let rec walk same sa sb =
      if same = [] then same
      else
        match (sa (), sb ()) with
        | Seq.Nil, Seq.Nil -> same
        | Seq.Cons ((_, ta), sa'), Seq.Nil -> walk (same_presence same ta Clean) sa' sb
        | Seq.Nil, Seq.Cons ((_, tb), sb') -> walk (same_presence same Clean tb) sa sb'
        | Seq.Cons ((ka, ta), sa'), Seq.Cons ((kb, tb), sb') ->
            let c = String.compare ka kb in
            if c < 0 then walk (same_presence same ta Clean) sa' sb
            else if c > 0 then walk (same_presence same Clean tb) sa sb'
            else walk (if ta == tb then same else same_presence same ta tb) sa' sb'
    in
    let same = walk ids (M.to_seq a) (M.to_seq b) in
    if same == ids then []
    else
      let rec minus ids same =
        match (ids, same) with
        | l, [] -> l
        | x :: tl, y :: tl' -> if x = y then minus tl tl' else x :: minus tl same
        | [], _ -> []
      in
      minus ids same

(** [blend base ~from ids]: environment whose components [ids] (for
    every variable) come from [from] and whose other components come
    from [base].  Restores the loop-stabilization snapshot of specs
    that settled while others kept iterating. *)
let blend (base : t) ~(from : t) ids : t =
  let rs = ranges ids in
  M.merge
    (fun _ tb tf ->
      let tb = match tb with Some t -> without_ranges t rs | None -> Clean in
      let tf = match tf with Some t -> restrict_ranges t rs | None -> Clean in
      match overlay tf tb with Clean -> None | t -> Some t)
    base from
