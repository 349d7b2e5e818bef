//! `dbpim-served` — the sweep-serving daemon.
//!
//! Binds a TCP socket, builds the warm artifact cache lazily, and serves
//! the NDJSON protocol until a `Shutdown` request arrives. See the README's
//! "Serving" section for the wire-protocol specification.

use db_pim::flags;
use dbpim_serve::options::{serve_config, SERVED_TABLE};
use dbpim_serve::Server;
use dbpim_trace::log_error;

fn main() {
    let (config, log_level) = flags::from_args("dbpim-served", SERVED_TABLE, serve_config);
    dbpim_trace::set_log_level(log_level);
    let server = match Server::bind(config.clone()) {
        Ok(server) => server,
        Err(e) => {
            log_error!("served", "cannot start: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.local_addr();
    let pipeline = config.pipeline;
    println!(
        "dbpim-served listening on {addr} ({} worker threads, width_mult {}, seed {}, \
         {} classes, {} operand width, fidelity {})",
        config.threads,
        pipeline.width_mult,
        pipeline.seed,
        pipeline.classes,
        pipeline.operand_width,
        if pipeline.evaluation_images > 0 {
            format!("on ({} images)", pipeline.evaluation_images)
        } else {
            "off".to_string()
        },
    );
    println!(
        "dbpim-served hardening: auth {}, max frame {} bytes, max pending {}, \
         per-client connections {}",
        if config.auth_token.is_some() { "required" } else { "off" },
        config.max_frame_bytes,
        config.max_pending_connections,
        config.max_connections_per_client.map_or("unlimited".to_string(), |cap| cap.to_string()),
    );
    if let Err(e) = server.run() {
        log_error!("served", "serving failed: {e}");
        std::process::exit(1);
    }
    println!("dbpim-served: shut down cleanly");
}
