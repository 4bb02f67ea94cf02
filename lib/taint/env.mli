(** Taint environments: a flow-sensitive map from variable names to
    per-spec taint vectors.

    Arrays and objects are tracked coarsely by their base variable,
    matching the granularity of the original WAP analyzer: if any
    element of [$a] is tainted, [$a] is tainted.

    A taint value is a sparse vector indexed by {e spec id}: component
    [i] present means "tainted for spec [i], with this origin"; the
    empty vector is clean for every spec.  Components never interact
    across ids, so one fused pass over N specs computes, component by
    component, exactly what N independent single-spec runs would. *)

type taint = (int * Trace.origin) list [@@deriving show]

val clean : taint

(** Component for one spec id. *)
val find : taint -> int -> Trace.origin option

(** The same origin for every given id (ids must be ascending). *)
val of_origin : ids:int list -> Trace.origin -> taint

(** Keep / drop the components of the given ids. *)
val restrict : taint -> int list -> taint

val without : taint -> int list -> taint

(** Apply [f] to every present component. *)
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

(** Cheap stabilization test for loop fixpoints: same key set tainted
    for the given spec id.  Per-spec, so a fused loop stops iterating
    each spec exactly when a single-spec run would. *)
val equal_shallow_for : int -> t -> t -> bool

(** [blend base ~from id]: environment whose component [id] comes from
    [from] for every variable and whose other components come from
    [base]. *)
val blend : t -> from:t -> int -> t
