(** [hsyn serve]: the multi-tenant synthesis daemon.

    A server listens on a Unix or TCP socket and speaks NDJSON, one
    request per connection:

    - the client sends a single {!Hsyn_core.Wire} request line
      ([{"kind":"hsyn.request",…}]), then reads lines until EOF;
    - the server streams typed {!Hsyn_core.Events} lines while the run
      progresses, then one final line: on success the bare versioned
      {!Hsyn_core.Synthesize.Result.to_json} — the very string [hsyn
      synth --json] prints for the same document — otherwise a typed
      [{"kind":"hsyn.error",…}] line ({!Hsyn_core.Wire.error});
    - a [{"kind":"hsyn.metrics"}] request line instead answers with one
      {!Hsyn_obs.Metrics.snapshot} line (the scrape endpoint), extended
      with a [serve_recent_slow] array (the last few slow requests —
      see [slow_ms]);
    - a [{"kind":"hsyn.prometheus"}] request line answers with the same
      registry rendered as Prometheus text exposition
      ({!Hsyn_obs.Prom.render}) and closes.

    Every admitted connection is minted a monotonic request id and
    served under an {!Hsyn_obs.Scope}, so the event lines streamed to
    the client carry a [request_id] field, the structured log records
    of the request ({!Hsyn_obs.Log}) carry [request_id] (and [tenant],
    when the document names one), and the request's spans are
    attributable ({!Hsyn_obs.Trace.scoped_events}). Each request emits
    one [info]-level access-log record (client, source, objective,
    config digest, queue wait, run time, status, and on success
    moves-committed and cache hit rate); requests that ran a synthesis
    (status [ok] or [failed]) and took longer than [slow_ms]
    additionally log their own span tree at [warn]. A document refused
    before synthesis ([bad_request]) has no span tree, so it is never
    a slow request.

    All requests of a server share one {!Hsyn_core.Session} (and hence
    one memo state and one domain pool per jobs count), so concurrent
    tenants synthesizing similar filters warm each other's caches;
    PR 6's session guarantee is what keeps each served result
    bit-identical to a solo run of the same document (modulo the
    [elapsed_s] wall-clock field and the engine's cache counts — see
    {!canonical_final}).

    Admission control is load-based: a connection is accepted into a
    bounded queue served by [max_inflight] worker domains; when
    [in_flight + queued] reaches [max_inflight + max_queue] the
    connection is answered immediately with an {!Hsyn_core.Wire.Overloaded}
    error carrying [retry_after_s] (the 429 of this protocol) and
    closed. While draining, new connections get {!Hsyn_core.Wire.Shutting_down}.

    The server publishes [serve.*] metrics: [serve.in_flight] /
    [serve.queued] / [serve.latency_p90_ms] gauges, a
    [serve.latency_ms] histogram (the p90 gauge is derived from it),
    [serve.accepted] / [serve.rejected] / [serve.completed] /
    [serve.errors] counters, and per-outcome labeled
    [serve.requests{objective=…,status=…[,tenant=…]}] counters. *)

module Wire = Hsyn_core.Wire
module Session = Hsyn_core.Session

type address =
  | Unix_socket of string  (** filesystem path; unlinked on clean stop *)
  | Tcp of string * int  (** host, port; port 0 binds an ephemeral port *)

val pp_address : Format.formatter -> address -> unit

type config = {
  max_inflight : int;  (** worker domains = concurrently running requests *)
  max_queue : int;  (** accepted connections waiting for a worker *)
  max_request_s : float option;
      (** server-side clamp on every request's budget deadline; [None]
          trusts the client's own budget *)
  retry_after_s : float;  (** hint carried by [Overloaded] rejects *)
  slow_ms : float option;
      (** requests that ran a synthesis and took longer than this log
          their span tree at [warn] and enter the scrape's
          [serve_recent_slow] ring; setting it also
          arms the tracer ({!Hsyn_obs.Trace.set_enabled}) at
          {!create}. [None] (default) disables slow-request capture *)
}
(** Every server synthesizes against {!Hsyn_modlib.Library.default},
    resolves [{"source":{"bench":…}}] names with
    {!Hsyn_benchmarks.Suite.resolve} (the built-in suite, [paulin]
    included), and waits at most 10 s for a connection's request
    line. *)

val default_config : config
(** 2 workers, queue of 8, no deadline clamp, retry after 1 s, no
    slow-request capture. *)

type t

val create : ?session:Session.t -> ?config:config -> address -> (t, string) result
(** Bind and listen (stale Unix-socket paths are unlinked; TCP sets
    [SO_REUSEADDR]). The server is not accepting until {!run}. *)

val address : t -> address
(** The bound address — with the real port when created on [Tcp (_, 0)]. *)

val session : t -> Session.t

val run : t -> unit
(** Accept loop; blocks the calling domain until {!stop}. Spawns the
    worker domains, then drains on stop: the listener closes first, every
    already-queued and in-flight request still runs to completion, and
    the workers are joined before [run] returns. Call once. *)

val stop : t -> unit
(** Request a drain. Only sets an atomic flag, so it is safe from a
    signal handler or another domain; {!run} notices within ~0.25 s.
    Idempotent. *)

val cancel_inflight : t -> unit
(** Cooperatively cancel every request currently running (their
    budget tokens), e.g. on a second Ctrl-C when the drain of {!stop}
    is not fast enough. The interrupted runs still send their final
    line (a truncated result or a typed error) before closing. Like
    {!stop}, safe to call from a signal handler. *)

type stats = {
  accepted : int;
  completed : int;  (** requests answered with a result line *)
  rejected : int;  (** overload/shutdown rejects *)
  errors : int;  (** requests answered with an error line *)
  in_flight : int;
  queued : int;
}

val stats : t -> stats

(** {1 Client helper}

    The blocking client side of the protocol, used by the CLI, the
    load-generator bench and the tests. *)

module Client : sig
  val raw : ?timeout_s:float -> address -> string -> (string list, string) result
  (** Connect, send one line, read every response line until the
      server closes. [Error] only on connection/IO failure — protocol
      errors come back as lines. *)

  val request : ?timeout_s:float -> address -> Wire.doc -> (string list, string) result
  (** {!raw} of the rendered document. The last returned line is the
      final result/error line; the preceding ones are events. *)

  val metrics : ?timeout_s:float -> address -> (string, string) result
  (** Fetch one metrics-snapshot line. *)

  val prometheus : ?timeout_s:float -> address -> (string, string) result
  (** Fetch the Prometheus text exposition ([hsyn top]'s sibling for
      external scrapers). *)
end

(** {1 Identity helpers} *)

val clamp_doc : config -> Wire.doc -> Wire.doc
(** The document a server with [config] runs for [doc]: its budget
    deadline clamped to [min(client, max_request_s)], and
    [config.engine.jobs] and [config.clib_effort.engine.jobs] each
    clamped to [Domain.recommended_domain_count ()] — the process keeps
    one pool of [jobs − 1] domains per distinct value
    ({!Hsyn_util.Pool.shared}), so a client must not choose it freely.
    Results do not depend on [jobs]. The request path and
    {!solo_final} both apply it. *)

val solo_final : ?session:Session.t -> config -> Wire.doc -> string
(** The final line a server with [config] would send for [doc],
    computed in-process with no socket (fresh session by default) —
    exactly what [hsyn synth --json] prints for the same document.
    Used to check served-vs-solo bit-identity. *)

val canonical_final : string -> string
(** The final line with [elapsed_s] and [stats.engine] nulled out.
    Those are the only fields that legitimately differ between two
    runs of the same deterministic (quota- or unlimited-budget)
    request: the wall clock, and the engine's cache hits, misses and
    simulations, since a warm shared session changes who computed a
    value, never the value. The run's own facts — its passes, moves
    tried and committed, and whether it was interrupted — stay.
    Byte-equality of canonical finals is the served-vs-solo identity
    check. Non-JSON lines pass through unchanged. *)
