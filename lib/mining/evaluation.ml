(** Model evaluation: stratified cross-validation, classifier ranking
    and top-3 selection (the data-mining process of Section III-B1,
    standing in for WEKA). *)

(** Aggregate confusion matrix of [algo] under stratified [k]-fold
    cross-validation. *)
let cross_validate ?(k = 10) ~seed (algo : Classifier.algorithm) (d : Dataset.t) :
    Metrics.confusion =
  let d = Dataset.shuffle ~seed d in
  let folds = Dataset.stratified_folds ~k d in
  List.fold_left
    (fun acc (train, test) ->
      let model = algo.Classifier.train ~seed train in
      List.fold_left
        (fun acc (inst : Dataset.instance) ->
          Metrics.observe acc
            ~predicted:(Classifier.predict model inst.features)
            ~actual:inst.label)
        acc test.Dataset.instances)
    Metrics.empty folds

type ranked = {
  algo : Classifier.algorithm;
  confusion : Metrics.confusion;
}

(** Rank evaluated classifiers by the paper's goals: primarily high tpp
    (catch false positives), secondarily low pfp (don't dismiss real
    vulnerabilities), then accuracy.  The sort is stable, so ties keep
    their input order. *)
let rank (scored : ranked list) : ranked list =
  List.sort
    (fun a b ->
      let key c =
        ( Metrics.tpp c.confusion -. Metrics.pfp c.confusion,
          Metrics.acc c.confusion )
      in
      compare (key b) (key a))
    scored

(** Evaluate a pool of classifiers and {!rank} them. *)
let rank_classifiers ?(k = 10) ~seed (pool : Classifier.algorithm list)
    (d : Dataset.t) : ranked list =
  rank (List.map (fun algo -> { algo; confusion = cross_validate ~k ~seed algo d }) pool)

(** The default classifier pool, echoing the paper's re-evaluation. *)
let default_pool =
  [
    Svm.algorithm;
    Logistic.algorithm;
    Random_forest.algorithm;
    Random_tree.algorithm;
    Decision_tree.algorithm;
    Naive_bayes.algorithm;
    Knn.algorithm;
    Mlp.algorithm;
  ]

(** Top-3 selection over the default pool. *)
let top3 ?(k = 10) ~seed (d : Dataset.t) : ranked list =
  match rank_classifiers ~k ~seed default_pool d with
  | a :: b :: c :: _ -> [ a; b; c ]
  | short -> short
