(** Common interface for the machine-learning classifiers.

    Every model predicts whether a candidate vulnerability is a false
    positive ([true]) from its binary attribute vector.  All training is
    deterministic given the seed so the experiment tables are
    reproducible. *)

type model = {
  name : string;
  predict : float array -> bool;
  score : float array -> float;  (** confidence in the FP class, in [0,1] *)
}

type algorithm = {
  algo_name : string;
  train : seed:int -> Dataset.t -> model;
}

val predict : model -> float array -> bool
val score : model -> float array -> float

(** Dense dot product (shared by the linear models). *)
val dot : float array -> float array -> float

val sigmoid : float -> float

(** The nonzero entries of a feature vector, in ascending index order. *)
type sparse = { idx : int array; vals : float array }

val sparse : float array -> sparse

(** [sparse_dot w (sparse x)] is [dot w x] bit for bit when [w] is
    finite: a skipped zero entry only adds a signed zero to the running
    sum. *)
val sparse_dot : float array -> sparse -> float
