(** Random Forest: bagged CART trees with per-split random attribute
    subsets, averaged vote.

    Newly selected into the top 3 (Table II): best fallout (pfp) in the
    paper, i.e. it dismisses the fewest real vulnerabilities. *)

type params = {
  n_trees : int;
  max_depth : int;
}

val default_params : params

type t = { trees : Decision_tree.t array }

val train : ?params:params -> seed:int -> Dataset.t -> t

(** Mean of the trees' leaf probabilities. *)
val score : t -> float array -> float

val predict : t -> float array -> bool

(** A trained model as an ensemble member. *)
val model : t -> Classifier.model

val algorithm : Classifier.algorithm
