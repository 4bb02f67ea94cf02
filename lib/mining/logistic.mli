(** Logistic regression with L2 regularization, trained by batch
    gradient descent.

    One of the original WAP's top-3 classifiers, kept in the new top 3
    (Table II). *)

type params = {
  learning_rate : float;
  iterations : int;
  l2 : float;
}

val default_params : params

type t = { weights : float array; bias : float }

val train : ?params:params -> Dataset.t -> t
val score : t -> float array -> float
val predict : t -> float array -> bool

(** A trained model as an ensemble member. *)
val model : t -> Classifier.model

(** Packaged for {!Evaluation} and {!Predictor}. *)
val algorithm : Classifier.algorithm
