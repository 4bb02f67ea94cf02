(** The false-positive predictor (Fig. 3): collects symptoms from a
    candidate, builds the attribute vector, and classifies it with the
    top-3 ensemble. *)

type config = {
  mode : Attributes.mode;
  algorithms : Classifier.algorithm list;  (** the top-3 ensemble *)
  dynamic_symptoms : Symptom.dynamic_map;
}

(** WAP v2.1: 16 attributes, Logistic Regression + Random Tree + SVM. *)
val original_config : config

(** WAPe: 61 attributes, SVM + Logistic Regression + Random Forest. *)
val extended_config : config

(** Extend a config with weapon-supplied dynamic symptoms. *)
val with_dynamic_symptoms : config -> Symptom.dynamic_map -> config

type t

(** The ensemble for a labelled data set, trained deterministically from
    [seed].  The data set's attribute mode is checked now; the
    classifiers train the first time {!is_false_positive} needs them,
    under the [predictor.train] span (one [classifier.train] child span
    per algorithm, with an [algo] argument, each also observed in the
    [mining.train_seconds.<algorithm>] histogram), so a process that
    classifies nothing never trains.  The predictor may be shared across
    domains: the first classifications of concurrent domains wait for
    one training.

    @raise Invalid_argument when the data set's attribute mode does not
    match the config. *)
val train : seed:int -> config -> Dataset.t -> t

(** The ensemble of already-trained [models], one per algorithm of
    [config] and in its order (see each classifier's [model]).  Nothing
    trains: no [predictor.train] span, no [mining.train_seconds.*]
    observation.

    @raise Invalid_argument when the models' names are not the config's
    algorithm names, in order. *)
val of_models : config -> Classifier.model list -> t

(** Majority vote of the ensemble: is the candidate a false positive? *)
val is_false_positive : t -> Wap_taint.Trace.candidate -> bool

(** [is_false_positive] and {!justification} together, collecting the
    candidate's evidence once; the vote runs under the same
    [predictor.classify] span. *)
val classify : t -> Wap_taint.Trace.candidate -> bool * string list

(** The symptoms the predictor saw for a candidate — used to justify FP
    verdicts to the user (the "justifying false positives" box of
    Fig. 3). *)
val justification : t -> Wap_taint.Trace.candidate -> string list

(** Split candidates into (predicted false positives, predicted real
    vulnerabilities); the latter go to the code corrector. *)
val triage :
  t ->
  Wap_taint.Trace.candidate list ->
  Wap_taint.Trace.candidate list * Wap_taint.Trace.candidate list
