(** The false-positive predictor (Fig. 3): collects symptoms from a
    candidate, builds the attribute vector, and classifies it with the
    top-3 ensemble.

    Two stock configurations exist, matching the two tool versions:
    - {!original_config}: 16 attributes, classifiers LR + Random Tree +
      SVM (WAP v2.1);
    - {!extended_config}: 61 attributes, classifiers SVM + LR + Random
      Forest (WAPe). *)

type config = {
  mode : Attributes.mode;
  algorithms : Classifier.algorithm list;  (** the top-3 ensemble *)
  dynamic_symptoms : Symptom.dynamic_map;
}

let original_config =
  {
    mode = Attributes.Original;
    algorithms = [ Logistic.algorithm; Random_tree.algorithm; Svm.algorithm ];
    dynamic_symptoms = [];
  }

let extended_config =
  {
    mode = Attributes.Extended;
    algorithms = [ Svm.algorithm; Logistic.algorithm; Random_forest.algorithm ];
    dynamic_symptoms = [];
  }

let with_dynamic_symptoms config map =
  { config with dynamic_symptoms = config.dynamic_symptoms @ map }

type t = {
  config : config;
  models : Classifier.model list Lazy.t;
  lock : Mutex.t;  (** serializes forcing [models] *)
}

(* One ensemble member, under its own span and in the
   [mining.train_seconds.<algorithm>] histogram that [--stats] lists. *)
let train_member ~seed d (a : Classifier.algorithm) =
  let t0 = Wap_obs.Clock.now_ns () in
  let model =
    Wap_obs.Trace.with_span ~cat:"mining" "classifier.train"
      ~args:[ ("algo", a.algo_name) ]
    @@ fun () -> a.train ~seed d
  in
  Wap_obs.Metrics.observe
    (Wap_obs.Metrics.histogram ("mining.train_seconds." ^ a.algo_name))
    (Wap_obs.Clock.ns_to_s (Wap_obs.Clock.elapsed_ns t0));
  model

(** Check the data set's attribute mode now; train the ensemble the
    first time a classification needs it. *)
let train ~seed (config : config) (d : Dataset.t) : t =
  if d.Dataset.mode <> config.mode then
    invalid_arg "Predictor.train: dataset attribute mode mismatch";
  let models =
    lazy
      (Wap_obs.Trace.with_span ~cat:"mining" "predictor.train"
         ~args:[ ("instances", string_of_int (Dataset.size d)) ]
       @@ fun () -> List.map (train_member ~seed d) config.algorithms)
  in
  { config; models; lock = Mutex.create () }

(** An ensemble trained elsewhere, one model per algorithm of [config],
    in its order. *)
let of_models (config : config) (models : Classifier.model list) : t =
  if
    List.map (fun (m : Classifier.model) -> m.name) models
    <> List.map (fun (a : Classifier.algorithm) -> a.algo_name) config.algorithms
  then invalid_arg "Predictor.of_models: models do not match the config's algorithms";
  { config; models = Lazy.from_val models; lock = Mutex.create () }

(* OCaml 5 raises [CamlinternalLazy.Undefined] when a second domain
   forces a lazy that another one is still forcing; under the lock the
   second one waits for the first training instead. *)
let models (p : t) = Mutex.protect p.lock (fun () -> Lazy.force p.models)

(* The candidate's evidence and the top-3 ensemble's majority vote on
   it, under the [predictor.classify] span. *)
let vote (p : t) (c : Wap_taint.Trace.candidate) : Evidence.t * bool =
  let models = models p in
  Wap_obs.Trace.with_span ~cat:"mining" "predictor.classify" @@ fun () ->
  let ev = Evidence.collect ~dynamic:p.config.dynamic_symptoms c in
  let x = Attributes.vector_of_evidence p.config.mode ev in
  let votes =
    List.length (List.filter (fun m -> Classifier.predict m x) models)
  in
  (ev, votes * 2 > List.length models)

(** Majority vote of the top-3 ensemble: is the candidate a false
    positive? *)
let is_false_positive (p : t) (c : Wap_taint.Trace.candidate) : bool =
  snd (vote p c)

(** The verdict of {!is_false_positive} and the symptoms of
    {!justification}, from one collection of the candidate's evidence. *)
let classify (p : t) (c : Wap_taint.Trace.candidate) : bool * string list =
  let ev, fp = vote p c in
  (fp, Evidence.to_list ev)

(** The symptoms the predictor saw for a candidate — used to justify FP
    verdicts to the user (the "justifying false positives" box of
    Fig. 3). *)
let justification (p : t) (c : Wap_taint.Trace.candidate) : string list =
  Evidence.to_list (Evidence.collect ~dynamic:p.config.dynamic_symptoms c)
