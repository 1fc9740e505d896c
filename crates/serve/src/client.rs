//! The wire protocol's client: one [`Client`] per connection.
//!
//! [`Client`] owns the connection: socket setup, id allocation, the set of
//! fingerprints the server is known to hold, encode-and-send, the full
//! resend after an `unknown-fp` answer, the table of requests in flight,
//! and the control verbs.  [`Client::schedule`] sends one request and
//! blocks for its response; any number of id-tagged requests may instead
//! share the connection ([`Client::submit`]) and complete in whatever order
//! the server finishes them ([`Client::recv`]).  Either way a request already
//! submitted in full replays as `FP <hex>` (no DAG payload on the wire),
//! falling back transparently when the server evicted the entry.

use crate::obs::MetricsSnapshot;
use crate::protocol::{
    encode_fingerprint_request, encode_request, read_metrics_reply, read_reply, read_slow_reply,
    read_trace_reply, Reply, RequestOptions, ScheduleResponse, ServeError, SlowEntry, WireTrace,
};
use crate::service::ServiceStats;
use bsp_model::{Dag, Machine};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A client for the wire protocol, usable from tests and the bench harness
/// in the same process as the server (loopback TCP) or from another process
/// entirely.  Pipelined, completions come in whatever order the server
/// finishes them:
///
/// ```text
/// let id_a = client.submit(&dag_a, &machine, &options)?;
/// let id_b = client.submit(&dag_b, &machine, &options)?;   // before recv!
/// let first = client.recv()?;   // completes whichever finished first
/// ```
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    scratch: String,
    /// Request fingerprints this client has successfully submitted in full;
    /// later identical requests replay by fingerprint (`FP <hex>`), skipping
    /// the DAG payload, and fall back transparently when the server evicted
    /// the entry.
    known_fingerprints: HashSet<u128>,
    fp_fallbacks: u64,
    /// What [`Client::submit`] sent and [`Client::recv`] has not completed.
    pending: HashMap<u64, InFlight>,
}

/// One request as it went on the wire.
#[derive(Clone, Copy)]
struct Sent {
    id: u64,
    fingerprint: u128,
    /// Whether the last wire form was a fingerprint-only replay (and may
    /// therefore need a full resend).
    fp_only: bool,
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a bound on both the connect and every read — for
    /// control-plane calls (the router's `METRICS` fan-out) that must not
    /// hang on a wedged peer.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_id: 1,
            scratch: String::new(),
            known_fingerprints: HashSet::new(),
            fp_fallbacks: 0,
            pending: HashMap::new(),
        })
    }

    /// Tells the client the server already holds this request (e.g. it was
    /// served before a restart and the durable store recovered it), so the
    /// *first* [`Client::schedule`] call for it replays by fingerprint
    /// instead of shipping the DAG payload.  A wrong assumption costs one
    /// transparent fallback to the full payload, counted by
    /// [`Client::fp_fallbacks`] — never a wrong answer.
    pub fn assume_cached(&mut self, dag: &Dag, machine: &Machine) {
        self.known_fingerprints
            .insert(bsp_model::request_key(dag, machine).full);
    }

    /// How many fingerprint replays came back `unknown-fp` and were resent
    /// in full.  Zero means every replay landed on a server that still held
    /// the entry — on a router, that every replay reached its owning shard.
    pub fn fp_fallbacks(&self) -> u64 {
        self.fp_fallbacks
    }

    /// Writes the scratch buffer to the socket.
    fn flush_scratch(&mut self) -> Result<(), ServeError> {
        self.writer.write_all(self.scratch.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Puts one request on the wire under a fresh id: by fingerprint when
    /// the server is known to hold it and may answer from its cache, in full
    /// otherwise.
    fn send(
        &mut self,
        dag: &Dag,
        machine: &Machine,
        options: &RequestOptions,
    ) -> Result<Sent, ServeError> {
        let key = bsp_model::request_key(dag, machine);
        let sent = Sent {
            id: self.next_id,
            fingerprint: key.full,
            fp_only: self.known_fingerprints.contains(&key.full),
        };
        self.next_id += 1;
        self.scratch.clear();
        if sent.fp_only {
            // The structure key rides along so a sharded deployment routes
            // the replay to the structural family's home shard.
            encode_fingerprint_request(
                &mut self.scratch,
                sent.id,
                sent.fingerprint,
                Some(key.structure),
                options.trace,
            );
        } else {
            encode_request(&mut self.scratch, sent.id, dag, machine, options)?;
        }
        self.flush_scratch()?;
        Ok(sent)
    }

    /// If `error` is the `unknown-fp` answer to a fingerprint replay — the
    /// server (or the failed-over shard) no longer holds the entry — resends
    /// the full payload under the same id and reports `true`: the caller
    /// keeps waiting for that id.
    fn resent_in_full(
        &mut self,
        sent: &mut Sent,
        error: &ServeError,
        dag: &Dag,
        machine: &Machine,
        options: &RequestOptions,
    ) -> Result<bool, ServeError> {
        if !sent.fp_only
            || !matches!(error, ServeError::Remote { kind, .. } if kind == "unknown-fp")
        {
            return Ok(false);
        }
        self.known_fingerprints.remove(&sent.fingerprint);
        self.fp_fallbacks += 1;
        sent.fp_only = false;
        self.scratch.clear();
        encode_request(&mut self.scratch, sent.id, dag, machine, options)?;
        self.flush_scratch()?;
        Ok(true)
    }

    /// Sends one scheduling request and blocks for the response, on a
    /// connection with nothing submitted: a completion of an earlier
    /// [`Client::submit`] arriving first is an error.
    ///
    /// Content-addressed fast path: when this client has already submitted
    /// an identical request (same fingerprint), only the fingerprint goes on
    /// the wire; if the server meanwhile evicted the schedule, the client
    /// transparently resends the full payload.
    pub fn schedule(
        &mut self,
        dag: &Dag,
        machine: &Machine,
        options: &RequestOptions,
    ) -> Result<ScheduleResponse, ServeError> {
        let mut sent = self.send(dag, machine, options)?;
        loop {
            match read_reply(&mut self.reader)? {
                Reply::Ok(response) if response.id == sent.id => {
                    // The server now holds the entry: the next identical
                    // request replays by fingerprint.
                    self.known_fingerprints.insert(sent.fingerprint);
                    return Ok(response);
                }
                Reply::Ok(response) => {
                    return Err(ServeError::Malformed {
                        line: format!("OK {}", response.id),
                        reason: format!(
                            "response id {} does not match request id {}",
                            response.id, sent.id
                        ),
                    });
                }
                Reply::Err { error, .. } => {
                    if !self.resent_in_full(&mut sent, &error, dag, machine, options)? {
                        return Err(error);
                    }
                }
            }
        }
    }

    /// Submits one request without waiting for any response; returns the id
    /// its completion will carry.  The caller bounds its own pipeline depth
    /// by balancing `submit` and [`Client::recv`] calls.
    ///
    /// Takes the DAG as an `Arc` because the client must be able to resend
    /// the payload if a fingerprint replay misses (eviction or failover).
    pub fn submit(
        &mut self,
        dag: &Arc<Dag>,
        machine: &Machine,
        options: &RequestOptions,
    ) -> Result<u64, ServeError> {
        let sent = self.send(dag, machine, options)?;
        self.pending.insert(
            sent.id,
            InFlight {
                dag: Arc::clone(dag),
                machine: machine.clone(),
                options: options.clone(),
                sent,
            },
        );
        Ok(sent.id)
    }

    /// Number of requests submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Blocks for the next completion of a [`Client::submit`]ted request, in
    /// whatever order the server finishes them.  The outer `Err` is a
    /// transport/protocol failure that kills the connection; per-request
    /// errors come back as [`Completion::Failed`].
    pub fn recv(&mut self) -> Result<Completion, ServeError> {
        loop {
            match read_reply(&mut self.reader)? {
                Reply::Ok(response) => {
                    let Some(entry) = self.pending.remove(&response.id) else {
                        return Err(ServeError::Malformed {
                            line: format!("OK {}", response.id),
                            reason: "response id matches no in-flight request".into(),
                        });
                    };
                    self.known_fingerprints.insert(entry.sent.fingerprint);
                    return Ok(Completion::Ok(response));
                }
                Reply::Err { id, error } => {
                    let Some(mut entry) = self.pending.remove(&id) else {
                        // id 0 (or unknown): a connection-level error.
                        return Err(error);
                    };
                    if self.resent_in_full(
                        &mut entry.sent,
                        &error,
                        &entry.dag,
                        &entry.machine,
                        &entry.options,
                    )? {
                        self.pending.insert(id, entry);
                        continue;
                    }
                    return Ok(Completion::Failed { id, error });
                }
            }
        }
    }

    /// Sends a one-line control verb.
    fn send_verb(&mut self, verb: &str) -> Result<(), ServeError> {
        self.scratch.clear();
        self.scratch.push_str(verb);
        self.scratch.push('\n');
        self.flush_scratch()
    }

    /// Fetches the server's statistics: one `METRICS` scrape read as a
    /// [`ServiceStats`].  On a router the quantiles are those of the shards'
    /// pooled observations.
    pub fn stats(&mut self) -> Result<ServiceStats, ServeError> {
        let exposition = self.metrics()?;
        let snapshot =
            MetricsSnapshot::parse(&exposition).map_err(|reason| ServeError::Malformed {
                line: String::new(),
                reason,
            })?;
        Ok(ServiceStats::from_snapshot(&snapshot))
    }

    /// Fetches the Prometheus-style text exposition (`METRICS` verb).  On a
    /// router this is the bucket-merged aggregate across every live shard
    /// plus the router's own series.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        self.send_verb("METRICS")?;
        read_metrics_reply(&mut self.reader)
    }

    /// Fetches one finished request's trace by id (`TRACE <id>` verb).  The
    /// id is reported in the `trace` key of every `OK` response header.
    /// Returns [`ServeError::UnknownTrace`] when the trace has aged out of
    /// the server's bounded journal.
    pub fn trace(&mut self, trace_id: u64) -> Result<WireTrace, ServeError> {
        self.send_verb(&format!("TRACE {trace_id:x}"))?;
        read_trace_reply(&mut self.reader)
    }

    /// Fetches the slow-request journal (`STATS SLOW` verb), slowest first.
    pub fn slow_stats(&mut self) -> Result<Vec<SlowEntry>, ServeError> {
        self.send_verb("STATS SLOW")?;
        read_slow_reply(&mut self.reader)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.send_verb("PING")?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ServeError::UnexpectedEof);
        }
        if line.trim() == "PONG" {
            Ok(())
        } else {
            Err(ServeError::Malformed {
                line: line.trim().to_string(),
                reason: "expected PONG".into(),
            })
        }
    }
}

/// The terminal outcome of one pipelined request.
#[derive(Debug)]
pub enum Completion {
    /// The request succeeded; `response.id` is the id [`Client::submit`]
    /// returned.
    Ok(ScheduleResponse),
    /// The server answered this request with an error.
    Failed {
        /// The id [`Client::submit`] returned for the failed request.
        id: u64,
        /// The server's error.
        error: ServeError,
    },
}

/// Everything the client must remember about an in-flight request: enough to
/// resend the full payload if an `FP` replay comes back `unknown-fp`.
struct InFlight {
    dag: Arc<Dag>,
    machine: Machine,
    options: RequestOptions,
    sent: Sent,
}
