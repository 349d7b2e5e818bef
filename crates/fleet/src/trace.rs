//! Remote trace collection and clock alignment for merged fleet traces.
//!
//! A fleet run spans processes: the driver dispatches `dse.point` work,
//! remote daemons execute it inside `serve.request` spans. Each process
//! records spans against its *own* monotonic epoch and its *own* wall
//! clock, so merging them into one Chrome trace needs two corrections:
//!
//! 1. **Epoch translation** — a remote span's offset-from-epoch becomes a
//!    wall-clock time via the snapshot's `epoch_unix_micros` anchor.
//! 2. **Clock alignment** — remote wall clocks drift; the NTP-style offset
//!    the [`Client`] estimates during its ping handshake (`offset =
//!    server_time − request midpoint`) maps a daemon's wall clock onto the
//!    driver's.
//!
//! The result of [`remote_lane`] is a [`ProcessLane`] whose timestamps are
//! microseconds since the *driver's* collector epoch — directly mergeable
//! by `ChromeTrace::render_lanes`, so daemon-side `serve.request` spans
//! nest visually under the driver's `dse.point` dispatches. Alignment is
//! only as good as the offset estimate (half the ping round-trip bounds
//! the error); sub-millisecond nesting across hosts is not guaranteed.

use std::time::Duration;

use dbpim_serve::Client;
use dbpim_trace::{CollectorSnapshot, ProcessLane, TraceSpan};

/// One daemon's drained span buffer plus the clock-offset estimate
/// captured during the collection handshake.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteTrace {
    /// The daemon endpoint (`host:port`) the spans came from.
    pub endpoint: String,
    /// The drained collector contents (spans, drop count, epoch anchor,
    /// daemon pid).
    pub snapshot: CollectorSnapshot,
    /// Estimated daemon-clock minus driver-clock offset in microseconds
    /// (NTP-style, from the ping request/response timestamps).
    pub clock_offset_micros: i64,
}

/// Connects to `endpoint`, estimates its clock offset via the version
/// handshake, authenticates when a token is given, and drains the daemon's
/// trace buffer.
///
/// # Errors
///
/// Returns a human-readable diagnostic naming the endpoint for connect,
/// handshake, auth or collection failures — callers typically warn and
/// skip the endpoint rather than fail the merge.
pub fn collect_remote_trace(
    endpoint: &str,
    auth_token: Option<&str>,
    timeout: Duration,
) -> Result<RemoteTrace, String> {
    let mut client = Client::connect_timeout(endpoint, timeout)
        .map_err(|e| format!("connect to {endpoint}: {e}"))?;
    client.set_response_timeout(Some(timeout)).map_err(|e| format!("configure {endpoint}: {e}"))?;
    client.ping().map_err(|e| format!("ping {endpoint}: {e}"))?;
    if let Some(token) = auth_token {
        client.authenticate(token).map_err(|e| format!("auth {endpoint}: {e}"))?;
    }
    let snapshot = client.trace_snapshot().map_err(|e| format!("trace from {endpoint}: {e}"))?;
    Ok(RemoteTrace {
        endpoint: endpoint.to_string(),
        snapshot,
        // A pre-v5 daemon answers no timestamp; assume synchronized clocks
        // rather than discarding its spans.
        clock_offset_micros: client.clock_offset_micros().unwrap_or(0),
    })
}

/// Maps one remote trace onto the driver's clock as a process lane:
/// `driver_relative = (remote_epoch + span_start − offset) −
/// driver_epoch`, clamped at zero (a span that aligns before the driver's
/// epoch is pinned to it rather than wrapped).
#[must_use]
pub fn remote_lane(remote: &RemoteTrace, driver_epoch_unix_micros: u64) -> ProcessLane {
    let to_i64 = |micros: u64| i64::try_from(micros).unwrap_or(i64::MAX);
    let spans = remote
        .snapshot
        .spans
        .iter()
        .map(|span| {
            let driver_relative = to_i64(remote.snapshot.epoch_unix_micros)
                .saturating_add(to_i64(span.start_micros))
                .saturating_sub(remote.clock_offset_micros)
                .saturating_sub(to_i64(driver_epoch_unix_micros));
            TraceSpan { start_micros: u64::try_from(driver_relative).unwrap_or(0), ..span.clone() }
        })
        .collect();
    ProcessLane {
        pid: remote.snapshot.pid,
        name: format!("dbpim-served {}", remote.endpoint),
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_micros: u64) -> TraceSpan {
        TraceSpan {
            id: 42,
            name: "serve.request".to_string(),
            thread: 1,
            depth: 0,
            start_micros,
            duration_micros: 500,
            args: vec![("point".to_string(), "alexnet/int8@4x64".to_string())],
        }
    }

    #[test]
    fn remote_lanes_align_onto_the_driver_clock() {
        // Driver epoch at unix 1_000_000 µs; daemon epoch at 1_500_000 on a
        // clock running 200_000 µs fast. A span 50_000 µs into the daemon's
        // trace happened at unix 1_550_000 daemon-time = 1_350_000
        // driver-time = 350_000 µs after the driver's epoch.
        let remote = RemoteTrace {
            endpoint: "127.0.0.1:7641".to_string(),
            snapshot: CollectorSnapshot {
                epoch_unix_micros: 1_500_000,
                pid: 4242,
                dropped: 0,
                spans: vec![span(50_000)],
            },
            clock_offset_micros: 200_000,
        };
        let lane = remote_lane(&remote, 1_000_000);
        assert_eq!(lane.pid, 4242);
        assert_eq!(lane.name, "dbpim-served 127.0.0.1:7641");
        assert_eq!(lane.spans.len(), 1);
        assert_eq!(lane.spans[0].start_micros, 350_000);
        // Everything but the timestamp is carried through untouched.
        assert_eq!(lane.spans[0].id, 42);
        assert_eq!(lane.spans[0].duration_micros, 500);
        assert_eq!(lane.spans[0].arg("point"), Some("alexnet/int8@4x64"));
    }

    #[test]
    fn spans_aligning_before_the_driver_epoch_clamp_to_zero() {
        let remote = RemoteTrace {
            endpoint: "a:1".to_string(),
            snapshot: CollectorSnapshot {
                epoch_unix_micros: 900_000,
                pid: 7,
                dropped: 0,
                spans: vec![span(0)],
            },
            clock_offset_micros: 0,
        };
        let lane = remote_lane(&remote, 1_000_000);
        assert_eq!(lane.spans[0].start_micros, 0, "clamped, not wrapped");
    }

    #[test]
    fn dead_endpoints_fail_with_a_named_address() {
        let err =
            collect_remote_trace("127.0.0.1:9", None, Duration::from_millis(200)).unwrap_err();
        assert!(err.contains("127.0.0.1:9"), "{err}");
    }
}
