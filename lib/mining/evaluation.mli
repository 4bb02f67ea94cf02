(** Model evaluation: stratified cross-validation, classifier ranking
    and top-3 selection (the data-mining process of Section III-B1,
    standing in for WEKA). *)

(** Aggregate confusion matrix of [algo] under stratified [k]-fold
    cross-validation (default [k = 10]); every instance is tested
    exactly once. *)
val cross_validate :
  ?k:int -> seed:int -> Classifier.algorithm -> Dataset.t -> Metrics.confusion

type ranked = {
  algo : Classifier.algorithm;
  confusion : Metrics.confusion;
}

(** Evaluate a pool and rank by the paper's goals: primarily high tpp
    with low pfp (informedness), secondarily accuracy. *)
val rank_classifiers :
  ?k:int -> seed:int -> Classifier.algorithm list -> Dataset.t -> ranked list

(** The default classifier pool, echoing the paper's re-evaluation. *)
val default_pool : Classifier.algorithm list

(** Top-3 selection over the default pool. *)
val top3 : ?k:int -> seed:int -> Dataset.t -> ranked list
