//! Blocking client for the explorer daemon.
//!
//! One [`Client`] is one TCP session; requests are answered in order on
//! the same connection, so a client is also the natural unit of
//! "sweeps that share a session". Used by `chain-nn query` and by the
//! integration tests; anything that speaks newline-delimited JSON (a
//! shell with `nc`, for instance) interoperates.

use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use chain_nn_dse::{DesignPoint, PointOutcome, SweepSpec};
use chain_nn_obs::trace::TraceContext;

use crate::protocol::{ProtocolError, Request, Response};

/// Client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, EOF mid-reply).
    Io(std::io::Error),
    /// The daemon answered something unparseable.
    Protocol(ProtocolError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// One connection to a running daemon.
///
/// Every typed request carries a monotonically increasing pipelining
/// id (`"req"`), which the daemon echoes on every reply line it
/// produces for that request. Replies still arrive in request order
/// (the daemon serves a session sequentially), but the ids let the
/// client *verify* the attribution — and discard stale lines of an
/// abandoned stream — instead of assuming strict request/reply
/// alternation. [`Client::pipeline`] sends without flushing or
/// waiting, so N requests can be in flight before the first
/// [`Client::recv_reply`]; on loopback that amortizes the write/read
/// syscall round trip across the whole batch.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// When set, every request this client sends carries this trace
    /// context, so the daemon files the request's spans under the
    /// caller's trace id instead of assigning its own.
    trace: Option<TraceContext>,
    /// The next pipelining id. Starts at 1 so 0 never appears on the
    /// wire (and a daemon that echoes nothing stays distinguishable).
    next_req: u64,
    /// The last reply line read, kept so its capacity is reused: replies
    /// decode from it in place.
    line: String,
}

impl Client {
    /// Connects to `addr` (anything `ToSocketAddrs`, e.g.
    /// `"127.0.0.1:7878"`).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok(); // request/reply, not bulk
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            trace: None,
            next_req: 1,
            line: String::new(),
        })
    }

    /// Sets (or clears) the trace context attached to every subsequent
    /// request on this session. Propagating one context across several
    /// requests stitches them into a single causal trace the daemon can
    /// answer `trace_query` for.
    pub fn set_trace(&mut self, ctx: Option<TraceContext>) {
        self.trace = ctx;
    }

    /// Sends one request and blocks for its reply.
    ///
    /// # Errors
    ///
    /// Transport failures, or a reply that does not parse. A `busy` or
    /// `error` reply is a successful round trip — inspect the
    /// [`Response`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.pipeline(request)?;
        self.recv_reply(id)
    }

    /// Queues one request without flushing or waiting, returning its
    /// pipelining id. Send as many as you like, then collect the
    /// replies **in the same order** with [`Client::recv_reply`] — the
    /// daemon serves a session sequentially, so out-of-order collection
    /// would deadlock on a reply that has not been produced yet.
    ///
    /// # Errors
    ///
    /// Transport failures while buffering the line.
    pub fn pipeline(&mut self, request: &Request) -> Result<u64, ClientError> {
        let id = self.next_req;
        self.next_req += 1;
        let mut wire = request.encode_with_meta(self.trace, Some(id));
        wire.push('\n');
        self.writer.write_all(wire.as_bytes())?;
        Ok(id)
    }

    /// Flushes any pipelined requests and blocks for the reply with
    /// this id, discarding reply lines that belong to other requests
    /// (stale lines of an abandoned stream, or replies the caller
    /// chose not to collect). Lines without an echoed id — a daemon
    /// predating pipelining, or its connection-bound `busy` refusal —
    /// are accepted as the next in-order reply.
    ///
    /// # Errors
    ///
    /// Transport failures, or a reply that does not parse.
    pub fn recv_reply(&mut self, id: u64) -> Result<Response, ClientError> {
        self.writer.flush()?;
        self.recv_matching(id)
    }

    /// Blocks for the next reply line belonging to request `id`.
    fn recv_matching(&mut self, id: u64) -> Result<Response, ClientError> {
        loop {
            let (response, req) = Response::decode_with_req(self.read_line()?.trim())?;
            match req {
                Some(other) if other != id => continue,
                _ => return Ok(response),
            }
        }
    }

    /// Blocks for the next raw reply line — the streaming counterpart
    /// of [`Client::request_raw`], used by `chain-nn query` to drain a
    /// streaming response line by line.
    ///
    /// # Errors
    ///
    /// Transport failures, including EOF before a line arrived.
    pub fn recv_raw_line(&mut self) -> Result<String, ClientError> {
        Ok(self.read_line()?.trim_end().to_owned())
    }

    /// Reads the next reply line into the reused line buffer.
    fn read_line(&mut self) -> Result<&str, ClientError> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before replying",
            )));
        }
        Ok(&self.line)
    }

    /// Sends a raw request line (already-encoded JSON) and returns the
    /// raw reply line — the `chain-nn query` passthrough.
    ///
    /// # Errors
    ///
    /// Transport failures only; the reply is not interpreted.
    pub fn request_raw(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_all(line.trim().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.recv_raw_line()
    }

    /// Evaluates one point.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn eval(&mut self, point: DesignPoint) -> Result<Response, ClientError> {
        self.request(&Request::Eval(point))
    }

    /// Evaluates a batch of points as one scheduler job, returning one
    /// outcome per point in order ([`Response::EvalBatch`]) — the
    /// cluster coordinator's scatter-gather primitive.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn eval_batch(&mut self, points: Vec<DesignPoint>) -> Result<Response, ClientError> {
        self.request(&Request::EvalBatch(points))
    }

    /// Runs one sweep.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn sweep(&mut self, spec: SweepSpec) -> Result<Response, ClientError> {
        self.request(&Request::Sweep(spec))
    }

    /// Runs a budget-constrained tune on the daemon.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn tune(&mut self, request: chain_nn_tuner::TuneRequest) -> Result<Response, ClientError> {
        self.request(&Request::Tune(Box::new(request)))
    }

    /// Runs a frontier tune (budget-axis sweep) on the daemon,
    /// invoking `on_step` with each streamed step line as it arrives —
    /// before later steps have been computed. Returns the terminal
    /// line: [`Response::TuneFrontierDone`] on success, or the `busy`/
    /// `error` response that ended the stream.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn tune_frontier(
        &mut self,
        request: chain_nn_tuner::FrontierTuneRequest,
        mut on_step: impl FnMut(&crate::protocol::FrontierStepSummary),
    ) -> Result<Response, ClientError> {
        let id = self.pipeline(&Request::TuneFrontier(Box::new(request)))?;
        self.writer.flush()?;
        loop {
            match self.recv_matching(id)? {
                Response::TuneFrontierStep(step) => on_step(&step),
                terminal => return Ok(terminal),
            }
        }
    }

    /// Queries the frontier of everything the daemon has cached
    /// (fps × power for `dims == 2`, fps × power × area for 3).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn frontier(&mut self, dims: u8) -> Result<Response, ClientError> {
        self.request(&Request::Frontier {
            dims,
            sqnr: false,
            stream: false,
        })
    }

    /// Queries the accuracy frontier (fps × power × SQNR) of everything
    /// the daemon has cached.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn frontier_accuracy(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Frontier {
            dims: 3,
            sqnr: true,
            stream: false,
        })
    }

    /// Streams the whole-cache frontier: `on_entry` fires once per
    /// non-dominated entry line as it arrives. Returns the terminal
    /// line ([`Response::FrontierStreamDone`] on success).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn frontier_stream(
        &mut self,
        dims: u8,
        sqnr: bool,
        mut on_entry: impl FnMut(&crate::protocol::FrontierEntry),
    ) -> Result<Response, ClientError> {
        let id = self.pipeline(&Request::Frontier {
            dims,
            sqnr,
            stream: true,
        })?;
        self.writer.flush()?;
        loop {
            match self.recv_matching(id)? {
                Response::FrontierStreamEntry { entry } => on_entry(&entry),
                terminal => return Ok(terminal),
            }
        }
    }

    /// Fetches server counters.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Stats)
    }

    /// Fetches the daemon's full metric snapshot (serve-layer request
    /// latencies and counters merged with the process-global dse/tuner
    /// metrics).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn metrics(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Metrics)
    }

    /// Fetches the daemon's windowed metrics history (1 s / 10 s / 60 s
    /// rates and latency quantiles from the sampler ring).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn metrics_history(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::MetricsHistory)
    }

    /// Subscribes to the daemon's sampler stream: `on_sample` fires
    /// once per sampler tick as each [`crate::protocol::WatchSample`]
    /// line arrives. `samples == 0` watches until the daemon shuts
    /// down. Returns the terminal line ([`Response::WatchDone`] on
    /// success).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn watch(
        &mut self,
        samples: u64,
        mut on_sample: impl FnMut(&crate::protocol::WatchSample),
    ) -> Result<Response, ClientError> {
        let id = self.pipeline(&Request::Watch { samples })?;
        self.writer.flush()?;
        loop {
            match self.recv_matching(id)? {
                Response::WatchSample(sample) => on_sample(&sample),
                terminal => return Ok(terminal),
            }
        }
    }

    /// Fetches the span tree recorded for one trace id
    /// ([`Response::Trace`]: the spans sorted by start time, plus the
    /// ring's dropped-span count).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn trace_query(&mut self, id: u64) -> Result<Response, ClientError> {
        self.request(&Request::TraceQuery { id })
    }

    /// Asks the daemon to write its flight file (recent spans + current
    /// metrics) right now — the on-demand counterpart of the panic
    /// hook. Requires the daemon to run with `--trace-log`.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn dump(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Dump)
    }

    /// Asks the daemon to drain, flush and exit.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`ClientError`]).
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Shutdown)
    }
}

/// Convenience used by tests and the eval outcome display path: renders
/// an outcome the way `chain-nn query` prints it.
pub fn outcome_summary(outcome: &PointOutcome) -> String {
    match outcome {
        PointOutcome::Feasible(r) => format!(
            "ok: {:.1} fps, {:.1} mW system, {:.0}k gates, {:.1} GOPS/W, {:.1} dB SQNR",
            r.fps,
            r.system_mw(),
            r.gates_k,
            r.gops_per_watt(),
            r.sqnr_db
        ),
        PointOutcome::Infeasible(reason) => format!("infeasible: {reason}"),
    }
}
