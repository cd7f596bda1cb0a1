type t = {
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable learned : int;
  mutable learned_literals : int;
  mutable deleted : int;
  mutable restarts : int;
  mutable max_decision_level : int;
  mutable root_simplifications : int;
  mutable foreign_merged : int;
  mutable foreign_discarded : int;
  mutable foreign_implications : int;
  mutable bcp_seconds : float;
  mutable total_seconds : float;
}

let create () =
  {
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    learned = 0;
    learned_literals = 0;
    deleted = 0;
    restarts = 0;
    max_decision_level = 0;
    root_simplifications = 0;
    foreign_merged = 0;
    foreign_discarded = 0;
    foreign_implications = 0;
    bcp_seconds = 0.;
    total_seconds = 0.;
  }

let copy t = { t with decisions = t.decisions }

let add acc x =
  acc.decisions <- acc.decisions + x.decisions;
  acc.propagations <- acc.propagations + x.propagations;
  acc.conflicts <- acc.conflicts + x.conflicts;
  acc.learned <- acc.learned + x.learned;
  acc.learned_literals <- acc.learned_literals + x.learned_literals;
  acc.deleted <- acc.deleted + x.deleted;
  acc.restarts <- acc.restarts + x.restarts;
  acc.max_decision_level <- max acc.max_decision_level x.max_decision_level;
  acc.root_simplifications <- acc.root_simplifications + x.root_simplifications;
  acc.foreign_merged <- acc.foreign_merged + x.foreign_merged;
  acc.foreign_discarded <- acc.foreign_discarded + x.foreign_discarded;
  acc.foreign_implications <- acc.foreign_implications + x.foreign_implications;
  acc.bcp_seconds <- acc.bcp_seconds +. x.bcp_seconds;
  acc.total_seconds <- acc.total_seconds +. x.total_seconds

let avg_learned_length t =
  if t.learned = 0 then 0. else float_of_int t.learned_literals /. float_of_int t.learned

let bcp_fraction t = if t.total_seconds <= 0. then 0. else t.bcp_seconds /. t.total_seconds

let pp ppf t =
  Format.fprintf ppf
    "@[<v>decisions            %d@,propagations         %d@,conflicts            %d@,\
     learned              %d (avg len %.1f)@,learned literals     %d@,\
     deleted              %d@,restarts             %d@,max level            %d@,\
     root simplifications %d@,foreign merged       %d@,foreign implications %d@,\
     foreign discarded    %d@,bcp seconds          %.3f@,total seconds        %.3f@,\
     bcp fraction         %.1f%%@]"
    t.decisions t.propagations t.conflicts t.learned (avg_learned_length t)
    t.learned_literals t.deleted t.restarts t.max_decision_level t.root_simplifications
    t.foreign_merged t.foreign_implications t.foreign_discarded t.bcp_seconds
    t.total_seconds
    (100. *. bcp_fraction t)

let json t =
  Obs.Json.Obj
    [
      ("decisions", Obs.Json.Int t.decisions);
      ("propagations", Obs.Json.Int t.propagations);
      ("conflicts", Obs.Json.Int t.conflicts);
      ("learned", Obs.Json.Int t.learned);
      ("learned_literals", Obs.Json.Int t.learned_literals);
      ("deleted", Obs.Json.Int t.deleted);
      ("restarts", Obs.Json.Int t.restarts);
      ("max_decision_level", Obs.Json.Int t.max_decision_level);
      ("root_simplifications", Obs.Json.Int t.root_simplifications);
      ("foreign_merged", Obs.Json.Int t.foreign_merged);
      ("foreign_discarded", Obs.Json.Int t.foreign_discarded);
      ("foreign_implications", Obs.Json.Int t.foreign_implications);
      ("avg_learned_length", Obs.Json.Float (avg_learned_length t));
    ]

let wall_json t =
  Obs.Json.Obj
    [
      ("bcp_seconds", Obs.Json.Float t.bcp_seconds);
      ("total_seconds", Obs.Json.Float t.total_seconds);
      ("bcp_fraction", Obs.Json.Float (bcp_fraction t));
    ]
