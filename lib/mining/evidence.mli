(** Symptom collection: turning a candidate vulnerability into the set
    of symptoms present in its data flow (the front half of Fig. 3).

    Evidence comes from three places: the validation guards the taint
    analyzer observed dominating the flow, the manipulation functions
    the tainted data passed through, and a syntactic analysis of the
    SQL query built at the sink. *)

(** A set of symptom names. *)
type t

val to_list : t -> string list
val mem : string -> t -> bool

(** Build an evidence set from raw names (used by tests). *)
val of_names : string list -> t

(** The SQL-manipulation symptoms of a query: FROM clause, aggregates,
    complex structure, numeric entry-point positions.  [origin_parts]
    supplies the structure recorded on the flow when the query was
    assembled before the sink. *)
val sql_symptoms :
  ?origin_parts:Wap_taint.Trace.qpart list -> Wap_php.Ast.expr list -> string list

(** [collect ?dynamic candidate] computes the symptom set of a
    candidate.  [dynamic] maps user function names to the static symptom
    they behave like (dynamic symptoms, Section III-B2). *)
val collect : ?dynamic:Symptom.dynamic_map -> Wap_taint.Trace.candidate -> t
