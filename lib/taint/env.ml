(** Taint environments: a flow-sensitive map from variable names to
    per-spec taint vectors.

    Arrays and objects are tracked coarsely by their base variable, which
    matches the granularity of the original WAP analyzer: if any element
    of [$a] is tainted, [$a] is tainted.

    A taint value is a sparse vector indexed by {e spec id} (the
    position of a detector spec in the active set): component [i]
    present means "tainted for spec [i], with this origin".  The empty
    vector is clean for every spec.  Components are kept sorted by id
    and never interact across ids, so a fused run over N specs computes,
    component by component, exactly what N independent single-spec runs
    would. *)

type taint = (int * Trace.origin) list [@@deriving show]

let clean : taint = []
let find (t : taint) id = List.assoc_opt id t

let of_origin ~ids (o : Trace.origin) : taint = List.map (fun id -> (id, o)) ids

let restrict (t : taint) ids = List.filter (fun (id, _) -> List.mem id ids) t
let without (t : taint) ids = List.filter (fun (id, _) -> not (List.mem id ids)) t

(* The components of one vector usually share one origin physically
   (built by {!of_origin}), so [f] — always pure here — is re-applied
   only when the input origin actually changes. *)
let map_origins f (t : taint) : taint =
  let rec go prev prev_r t =
    match t with
    | [] -> []
    | (id, o) :: tl ->
        let r = if o == prev then prev_r else f o in
        (id, r) :: go o r tl
  in
  match t with
  | [] -> []
  | (id, o) :: tl ->
      let r = f o in
      (id, r) :: go o r tl

(* Merge two sorted-by-id vectors with one function per case; [both] is
   memoized on physical equality of its operand pair, for the same
   shared-origin reason as {!map_origins}. *)
let combine ~both a b : taint =
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
    | [], t | t, [] -> t
    | (ia, oa) :: ta, (ib, ob) :: tb ->
        if ia < ib then (ia, oa) :: go ta b
        else if ib < ia then (ib, ob) :: go a tb
        else (ia, both oa ob) :: go ta tb
  in
  go a b

(** [overlay a b]: union of two vectors; where both have a component,
    [a]'s wins.  Used to assemble disjoint id groups (e.g. the specs for
    which a name is a superglobal vs the rest). *)
let overlay a b = combine ~both:(fun oa _ -> oa) a b

(** Join for control-flow merges: taint wins (may-analysis).  When both
    sides are tainted we keep the left origin but merge guard evidence,
    so a guard present on only one path does not count. *)
let join (a : taint) (b : taint) : taint =
  if a == b then a
  else
    combine a b ~both:(fun o1 o2 ->
        if o1 == o2 then o1
        else
          { o1 with
            Trace.guards = Trace.inter_names o1.Trace.guards o2.Trace.guards })

(** Join used when combining operands of one expression (concatenation,
    arithmetic): evidence from both operands accumulates. *)
let join_operands (a : taint) (b : taint) : taint =
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
let get env v : taint = match M.find_opt v env with Some t -> t | None -> []
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

(** Cheap per-spec stabilization test for loop fixpoints: same key set
    tainted {e for spec [id]}.  Checking per spec (not over the union)
    is what lets a fused loop stop iterating each spec exactly when a
    single-spec run would. *)
let equal_shallow_for id (a : t) (b : t) =
  a == b
  ||
  let keys m =
    M.fold (fun k t acc -> if find t id <> None then k :: acc else acc) m []
  in
  keys a = keys b

(** [blend base ~from id]: environment whose component [id] (for every
    variable) comes from [from] and whose other components come from
    [base].  Restores a spec's loop-stabilization snapshot after other
    specs kept iterating. *)
let blend (base : t) ~(from : t) id : t =
  let stripped = M.map (fun t -> without t [ id ]) base in
  M.fold
    (fun k t acc ->
      match find t id with
      | None -> acc
      | Some o ->
          let cur = match M.find_opt k acc with Some c -> c | None -> [] in
          M.add k (overlay cur [ (id, o) ]) acc)
    from stripped
