(** CART-style decision trees over binary attributes.

    Shared by {!Random_tree} (a single tree choosing among a random
    attribute subset at each split, as in WEKA's RandomTree — one of the
    original WAP's classifiers) and {!Random_forest} (bagged trees, one
    of the new top 3).  Zero-gain splits are allowed so XOR-style
    attribute interactions can be learned; [max_depth] bounds growth. *)

type node =
  | Leaf of float  (** probability of the FP class *)
  | Split of int * node * node  (** attribute index; zero branch, one branch *)

type t = { root : node }

type params = {
  max_depth : int;
  min_samples : int;
  feature_subset : int option;
      (** when set, each split considers only this many randomly chosen
          attributes — [None] examines all (plain CART) *)
}

val default_params : params

val train : ?params:params -> seed:int -> Dataset.t -> t

(** A data set laid out for growing trees: one byte column per
    attribute. *)
type data

val prepare : Dataset.t -> data

(** [grow ~seed data ids] is the tree {!train} builds from the prepared
    instances [ids] (indices into the data set, repeats allowed, as in a
    bootstrap sample); [ids] is permuted in place.
    [train ~seed d] is [grow ~seed (prepare d) [|0; ...; size d - 1|]]. *)
val grow : ?params:params -> seed:int -> data -> int array -> t
val score : t -> float array -> float
val predict : t -> float array -> bool
val algorithm : Classifier.algorithm

(** Tree depth (a lone leaf has depth 0). *)
val depth_of : node -> int

(** Total node count. *)
val nodes_of : node -> int
