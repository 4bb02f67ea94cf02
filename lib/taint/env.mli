(** Taint environments: a flow-sensitive map from variable names to
    per-spec taint vectors.

    Arrays and objects are tracked coarsely by their base variable,
    matching the granularity of the original WAP analyzer: if any
    element of [$a] is tainted, [$a] is tainted.

    A taint value is a sparse vector indexed by {e spec id}: component
    [i] present means "tainted for spec [i], with this origin"; the
    empty vector is clean for every spec.  Components never interact
    across ids, so one fused pass over N specs computes, component by
    component, exactly what N independent single-spec runs would.

    The vector is abstract.  It groups the ids that share one physical
    origin: a value tainted the same way for all N specs is one entry,
    and each operation costs time in its entries, so it pays for what
    differs between specs rather than N times.  Every operation below is
    specified per id, and no caller can tell the grouping apart from a
    plain [(id, origin)] list.  Id lists given to it must be ascending. *)

type taint

val clean : taint
val is_clean : taint -> bool

(** Component for one spec id. *)
val find : taint -> int -> Trace.origin option

(** [iter f t] calls [f lo hi o] for each entry of [t], in id order:
    the ids [lo..hi] all hold [o].  An id no entry covers is clean. *)
val iter : (int -> int -> Trace.origin -> unit) -> taint -> unit

(** The same origin for every given id. *)
val of_origin : ids:int list -> Trace.origin -> taint

(** The vector of the given components, ids ascending. *)
val of_list : (int * Trace.origin) list -> taint

(** Keep / drop the components of the given ids. *)
val restrict : taint -> int list -> taint

val without : taint -> int list -> taint

(** Apply [f] to every present component: once per entry. *)
val map_origins : (Trace.origin -> Trace.origin) -> taint -> taint

(** Union of two vectors; where both have a component, the left wins.
    Used to assemble disjoint id groups. *)
val overlay : taint -> taint -> taint

(** Join for control-flow merges: taint wins (may-analysis); guards
    present on only one path are dropped.  Componentwise. *)
val join : taint -> taint -> taint

(** Join used when combining operands of one expression (concatenation,
    arithmetic): evidence from both operands accumulates.
    Componentwise. *)
val join_operands : taint -> taint -> taint

type t

val empty : t
val get : t -> string -> taint
val set : t -> string -> taint -> t
val remove : t -> string -> t

(** Pointwise join of two environments (after an if/else, loop, ...). *)
val merge : t -> t -> t

(** [changed ids a b]: the ids of [ids] whose set of tainted variables
    differs between [a] and [b], ascending — the loop fixpoint's
    stabilization test for every live spec at once, in one walk over
    both environments. *)
val changed : int list -> t -> t -> int list

(** [blend base ~from ids]: environment whose components [ids] come
    from [from] for every variable and whose other components come
    from [base]. *)
val blend : t -> from:t -> int list -> t
