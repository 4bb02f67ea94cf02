(** Training data for the false-positive predictor.

    An instance is one candidate vulnerability encoded as a binary
    attribute vector plus its manually assigned class: [true] when the
    candidate is a false positive, [false] when it is a real
    vulnerability — the Yes/No of Table III. *)

type instance = {
  features : float array;
  label : bool;  (** [true] = false positive (class Yes) *)
}

type t = {
  mode : Attributes.mode;
  instances : instance list;
}

val size : t -> int

(** Number of false-positive instances. *)
val positives : t -> int

(** Number of real-vulnerability instances. *)
val negatives : t -> int

val make : mode:Attributes.mode -> instance list -> t

(** Encode labelled evidence sets. *)
val of_evidence : mode:Attributes.mode -> (Evidence.t * bool) list -> t

(** Noise elimination (Section III-B1): duplicated instances are kept
    once; ambiguous ones (same features, both labels) are removed. *)
val deduplicate : t -> t

(** Balance to [n/2] false positives and [n/2] real vulnerabilities
    (at most — limited by the smaller class). *)
val balance : ?n:int -> t -> t

(** Take up to [fp] false-positive and [rv] real-vulnerability
    instances — the original WAP's set was unbalanced (32 FP / 44 RV). *)
val take_split : fp:int -> rv:int -> t -> t

(** Deterministic Fisher-Yates shuffle. *)
val shuffle : seed:int -> t -> t

(** [stratified_folds ~k d] partitions the instances into [k] folds
    preserving the class ratio; returns (train, test) pairs. *)
val stratified_folds : k:int -> t -> (t * t) list

(** CSV with a header row; labels are [FP] / [RV]. *)
val to_csv : t -> string

(** Parse {!to_csv}'s format: a header of the mode's attribute names
    and [class], then at least one row of that width whose attribute
    cells are [0] or [1] and whose label is [FP] or [RV].  The error
    names the 1-based line of the first check that fails. *)
val of_csv : mode:Attributes.mode -> string -> (t, string) result

(** WEKA ARFF export — the format the paper's data-mining step consumed. *)
val to_arff : ?relation:string -> t -> string
