module Json = Json
module Clock = Clock
module Metrics = Metrics
module Span = Span
module Chrome = Chrome
module Report = Report
module Flight = Flight
module Anomaly = Anomaly
module Slo = Slo
module Expo = Expo

type t = {
  on : bool;
  metrics : Metrics.t;
  spans : Span.t;
  flight : Flight.t;
  anomaly : Anomaly.t;
}

let create ?(flight = Flight.disabled) ?(anomaly = Anomaly.disabled) () =
  {
    on = true;
    metrics = Metrics.create ~enabled:true;
    spans = Span.create ~enabled:true;
    flight;
    anomaly;
  }

let disabled =
  {
    on = false;
    metrics = Metrics.disabled;
    spans = Span.disabled;
    flight = Flight.disabled;
    anomaly = Anomaly.disabled;
  }

let enabled t = t.on

let metrics t = t.metrics

let spans t = t.spans

let flight t = t.flight

let anomaly t = t.anomaly

let scope t ~labels =
  if not t.on then t else { t with metrics = Metrics.scope t.metrics ~labels }

let set_clock t clock =
  Span.set_clock t.spans clock;
  Flight.set_clock t.flight clock
