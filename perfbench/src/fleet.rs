//! The daemons one workload runs against, hosted in this process and
//! reached over loopback TCP exactly as the CLI reaches them.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

use chain_nn_dse::executor;
use chain_nn_serve::cluster::{ClusterConfig, Coordinator};
use chain_nn_serve::{Client, Response, Server, ServerConfig};

use crate::gen::Workload;

/// Cache bound beyond the replayed file, in points. A bounded cache
/// keeps memory flat over a run of any length, so a faster program does
/// not show up as a larger `peak_rss_mb` merely by caching more points.
pub const CACHE_HEADROOM: usize = 32 * 1024;

pub struct Fleet {
    /// Where the workload's client connects: the daemon, or the
    /// coordinator in front of the shards.
    pub front: SocketAddr,
    /// The daemons that evaluate points (one, or the shards).
    pub daemons: Vec<SocketAddr>,
    workload: Workload,
    handles: Vec<JoinHandle<std::io::Result<()>>>,
    /// A coordinator started in front of a single daemon by
    /// [`Fleet::coordinator`]; stopped after the daemon.
    probe_coordinator: Option<(SocketAddr, JoinHandle<std::io::Result<()>>)>,
}

fn io_err(e: impl ToString) -> String {
    e.to_string()
}

fn daemon_config(workload: Workload, file: PathBuf, file_points: usize) -> ServerConfig {
    ServerConfig {
        // Default worker count (one per core) for the single daemons;
        // one worker per shard, so the two shards together run no more
        // workers than a 2-core host has cores.
        threads: match workload {
            Workload::TuneCluster => 1,
            _ => executor::default_threads(),
        },
        cache_file: Some(file),
        cache_capacity: Some(file_points + CACHE_HEADROOM),
        ..ServerConfig::default()
    }
}

impl Fleet {
    /// Binds the workload's daemons on their cache files, then connects
    /// one client and waits for its first answered request (`stats`,
    /// whose `loaded_from_disk` must equal `expected_loaded`). Returns
    /// the fleet, the connected client and the set-up time in seconds:
    /// from the first `bind` (which replays the file) to that answer.
    pub fn start(
        workload: Workload,
        files: &[(PathBuf, usize)],
        expected_loaded: usize,
    ) -> Result<(Fleet, Client, f64), String> {
        let started = Instant::now();
        let mut daemons = Vec::new();
        let mut handles = Vec::new();
        let mut servers = Vec::new();
        for (file, points) in files {
            let server =
                Server::bind(daemon_config(workload, file.clone(), *points)).map_err(io_err)?;
            daemons.push(server.local_addr().map_err(io_err)?);
            servers.push(server);
        }
        for server in servers {
            handles.push(std::thread::spawn(move || server.run().map(drop)));
        }
        let front = if workload == Workload::TuneCluster {
            let coordinator = Coordinator::bind(ClusterConfig {
                shards: daemons.iter().map(SocketAddr::to_string).collect(),
                ..ClusterConfig::default()
            })
            .map_err(io_err)?;
            let addr = coordinator.local_addr().map_err(io_err)?;
            handles.push(std::thread::spawn(move || coordinator.run().map(drop)));
            addr
        } else {
            daemons[0]
        };
        let fleet = Fleet {
            front,
            daemons,
            workload,
            handles,
            probe_coordinator: None,
        };
        let mut client = match Client::connect(front) {
            Ok(c) => c,
            Err(e) => {
                fleet.abandon();
                return Err(format!("connect: {e}"));
            }
        };
        match client.stats() {
            Ok(Response::Stats(s)) if s.loaded_from_disk == expected_loaded => {
                Ok((fleet, client, started.elapsed().as_secs_f64()))
            }
            other => {
                fleet.stop(&mut client).ok();
                Err(format!(
                    "readiness probe: expected stats with {expected_loaded} replayed points, got {other:?}"
                ))
            }
        }
    }

    /// A coordinator over this fleet's daemons: the front itself for
    /// `tune-cluster`, otherwise one started over the single daemon.
    pub fn coordinator(&mut self) -> Result<SocketAddr, String> {
        if self.workload == Workload::TuneCluster {
            return Ok(self.front);
        }
        if let Some((addr, _)) = &self.probe_coordinator {
            return Ok(*addr);
        }
        let coordinator = Coordinator::bind(ClusterConfig {
            shards: self.daemons.iter().map(SocketAddr::to_string).collect(),
            ..ClusterConfig::default()
        })
        .map_err(io_err)?;
        let addr = coordinator.local_addr().map_err(io_err)?;
        let handle = std::thread::spawn(move || coordinator.run().map(drop));
        self.probe_coordinator = Some((addr, handle));
        Ok(addr)
    }

    /// Shuts the fleet down through `client` (the coordinator forwards
    /// the shutdown to its shards) and joins every daemon thread.
    pub fn stop(self, client: &mut Client) -> Result<(), String> {
        let reply = client.shutdown();
        let mut result = match reply {
            Ok(Response::Shutdown) => Ok(()),
            other => Err(format!("shutdown: {other:?}")),
        };
        if result.is_err() {
            // The front did not take the shutdown; stop each daemon
            // directly so the joins below cannot hang.
            self.abandon_daemons();
        }
        // A probe coordinator forwards its shutdown to the daemon, so
        // it goes last, when that forward can only find the daemon gone.
        let probe = self.probe_coordinator.map(|(addr, handle)| {
            if let Ok(mut c) = Client::connect(addr) {
                c.shutdown().ok();
            }
            handle
        });
        for handle in self.handles.into_iter().chain(probe) {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => result = result.and(Err(format!("daemon: {e}"))),
                Err(_) => result = result.and(Err("daemon thread panicked".to_owned())),
            }
        }
        result
    }

    fn abandon_daemons(&self) {
        for addr in self.daemons.iter().chain(std::iter::once(&self.front)) {
            if let Ok(mut c) = Client::connect(addr) {
                c.shutdown().ok();
            }
        }
    }

    /// Stops a fleet whose client never connected.
    fn abandon(self) {
        self.abandon_daemons();
        for handle in self.handles {
            handle.join().ok();
        }
    }
}
