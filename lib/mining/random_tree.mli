(** Random Tree: a single decision tree that examines a random subset of
    attributes at each split (as in WEKA).

    Part of the original WAP's top 3; replaced by Random Forest in the
    new version (Section III-B1). *)

(** The per-split attribute-subset size for [dim] attributes
    (⌊√dim⌋+1). *)
val subset_size : int -> int

val train : seed:int -> Dataset.t -> Decision_tree.t

(** A trained tree as an ensemble member. *)
val model : Decision_tree.t -> Classifier.model

val algorithm : Classifier.algorithm
