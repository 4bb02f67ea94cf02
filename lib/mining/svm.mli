(** Linear support vector machine trained with the Pegasos stochastic
    sub-gradient algorithm.

    The paper's best classifier for goal (1): catching as many false
    positives as possible (highest tpp in Table II). *)

type params = {
  lambda : float;  (** regularization strength *)
  epochs : int;
}

val default_params : params

type t = { weights : float array; bias : float }

val train : ?params:params -> seed:int -> Dataset.t -> t

(** Signed distance to the separating hyperplane. *)
val margin : t -> float array -> float

val predict : t -> float array -> bool

(** Margin squashed to [0,1]. *)
val score : t -> float array -> float

(** A trained model as an ensemble member. *)
val model : t -> Classifier.model

val algorithm : Classifier.algorithm
