//! Single-machine scale-out: boot N in-process `joss-serve` daemons on
//! ephemeral ports (`joss_fleet --spawn N` and tests).

use joss_serve::{ServeConfig, Server, ServerHandle};
use std::io;

/// Spawn `n` daemons sharing `template`'s parameters, each bound to its
/// own `127.0.0.1:0` ephemeral port. The handles' addresses are the
/// backend list; stop each handle when done. Every daemon trains its own
/// context lazily: the first shard it serves pays for it.
pub fn spawn_local_backends(n: usize, template: &ServeConfig) -> io::Result<Vec<ServerHandle>> {
    (0..n.max(1))
        .map(|_| {
            Server::bind(ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..template.clone()
            })?
            .spawn()
        })
        .collect()
}
