//! Where matrix cells execute: in-process through [`ar_system::Sweep`], or
//! remotely through a persistent [`ar_serve`] sweep server.
//!
//! The figure modules all funnel through [`Matrix::run`](crate::Matrix::run),
//! so the execution backend is a single process-wide switch rather than a
//! parameter threaded through every artefact: `ar-experiments --cached ADDR`
//! calls [`use_server`] once at startup, and every matrix after that is
//! resolved against the server's content-addressed report cache — a repeated
//! `--all` run recomputes only the cells whose effective configuration
//! actually changed.

use crate::scale::ExperimentScale;
use ar_serve::SweepClient;
use std::sync::RwLock;

static SERVER: RwLock<Option<String>> = RwLock::new(None);

/// Routes all subsequent matrix runs through the sweep server at `addr`.
pub fn use_server(addr: impl Into<String>) {
    *SERVER.write().expect("backend lock poisoned") = Some(addr.into());
}

/// Routes all subsequent matrix runs through the in-process sweep (the
/// default).
pub fn use_local() {
    *SERVER.write().expect("backend lock poisoned") = None;
}

/// The currently configured server address, if any.
pub fn server() -> Option<String> {
    SERVER.read().expect("backend lock poisoned").clone()
}

/// Connects to the sweep server at `addr` and checks that it simulates
/// `scale`'s base configuration (its hello banner carries the base's
/// content hash), so its cached reports belong to this scale.
///
/// # Errors
///
/// Returns the message to show the user when the server is unreachable or
/// simulates another base configuration.
pub fn connect(addr: &str, scale: ExperimentScale) -> Result<SweepClient, String> {
    let client = SweepClient::connect(addr).map_err(|e| format!("sweep server {addr}: {e}"))?;
    if client.base_hash() != scale.system_config().to_json().content_hash() {
        return Err(format!(
            "sweep server {addr} simulates a different base configuration; \
             start it with `ar-experiments serve --scale {scale}`"
        ));
    }
    Ok(client)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_switch_round_trips() {
        // Serialised in one test: the switch is process-global.
        assert_eq!(server(), None);
        use_server("127.0.0.1:7171");
        assert_eq!(server(), Some("127.0.0.1:7171".to_string()));
        use_local();
        assert_eq!(server(), None);
    }
}
