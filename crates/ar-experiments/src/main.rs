//! Command-line driver that regenerates the paper's tables and figures.
//!
//! ```text
//! ar-experiments --all --scale quick
//! ar-experiments --figure 5.1a --scale standard
//! ar-experiments --figure 5.1a --json
//! ar-experiments --table 4.1
//! ar-experiments --list
//! ar-experiments serve --scale quick --cache target/sweep-cache
//! ar-experiments --all --cached 127.0.0.1:7171
//! ```

use ar_experiments::{backend, Artifact, ExperimentScale};
use ar_serve::{ServerConfig, SweepServer};
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: ar-experiments [--list] [--all] [--figure <id>] [--table <id>] [--scale quick|standard|full] [--json] [--cached <addr>]\n\
     \u{20}      ar-experiments serve [--scale quick|standard|full] [--addr <ip:port>] [--cache <dir>] [--workers <n>]\n\
     \u{20}      ar-experiments checkpoint <snapshot|resume|verify|sample> [options] (see `checkpoint --help`)\n\
     ids: 3.1 4.1 5.1a 5.1b 5.2a 5.2b 5.3 5.4a 5.4b 5.5 5.6 5.7 5.8\n\
     --json emits one machine-readable JSON document per selected artefact\n\
     --cached resolves matrix cells through a running sweep server (start one with `serve`)\n\
     serve runs a persistent sweep daemon with a content-addressed report cache\n\
     checkpoint snapshots, restores, verifies and interval-samples single runs"
}

/// Runs the `serve` subcommand: a persistent sweep daemon over the scale's
/// base configuration.
fn serve(args: &[String]) -> ExitCode {
    let mut scale = ExperimentScale::Quick;
    let mut addr = "127.0.0.1:7171".to_string();
    let mut cache = "target/sweep-cache".to_string();
    let mut workers = 0usize;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1).cloned().ok_or_else(|| {
                eprintln!("{} needs a value\n{}", args[i], usage());
            })
        };
        match args[i].as_str() {
            "--scale" => {
                let Ok(name) = value(i) else { return ExitCode::FAILURE };
                match ExperimentScale::parse(&name) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale {name:?}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
                i += 1;
            }
            "--addr" => {
                let Ok(v) = value(i) else { return ExitCode::FAILURE };
                addr = v;
                i += 1;
            }
            "--cache" => {
                let Ok(v) = value(i) else { return ExitCode::FAILURE };
                cache = v;
                i += 1;
            }
            "--workers" => {
                let Ok(v) = value(i) else { return ExitCode::FAILURE };
                match v.parse() {
                    Ok(n) => workers = n,
                    Err(_) => {
                        eprintln!("--workers needs a number\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
                i += 1;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown serve argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let config = ServerConfig::new(scale.system_config(), &cache).workers(workers);
    let server = match SweepServer::bind(addr.as_str(), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Machine-parseable: scripts bind port 0 and scrape the actual port.
    println!("[ar-serve] listening on {} scale {scale} cache {cache}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("checkpoint") {
        return match ar_experiments::checkpoint::run(&args[1..]) {
            Ok(output) => {
                println!("{output}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    let mut scale = ExperimentScale::Quick;
    let mut selected: Vec<Artifact> = Vec::new();
    let mut list = false;
    let mut all = false;
    let mut json = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => list = true,
            "--all" => all = true,
            "--json" => json = true,
            "--cached" => {
                i += 1;
                let Some(addr) = args.get(i) else {
                    eprintln!("--cached needs a server address\n{}", usage());
                    return ExitCode::FAILURE;
                };
                backend::use_server(addr);
            }
            "--scale" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!("--scale needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                match ExperimentScale::parse(name) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale {name:?}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--figure" | "--table" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!("{} needs a value\n{}", args[i - 1], usage());
                    return ExitCode::FAILURE;
                };
                match Artifact::parse(name) {
                    Some(a) => selected.push(a),
                    None => {
                        eprintln!("unknown artefact {name:?}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if list {
        for a in Artifact::ALL {
            println!("{}", a.name());
        }
        return ExitCode::SUCCESS;
    }
    if all {
        selected = Artifact::ALL.to_vec();
    }
    if selected.is_empty() {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }

    // Check the sweep server once before rendering: an unreachable server,
    // or one that simulates another scale, is an input error like any other.
    if let Some(addr) = backend::server() {
        if let Err(message) = backend::connect(&addr, scale) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    for artifact in selected {
        eprintln!("[ar-experiments] running {} at scale {scale} ...", artifact.name());
        if json {
            println!("{}", artifact.render_json(scale));
        } else {
            println!("{}", artifact.render(scale));
        }
    }
    ExitCode::SUCCESS
}
