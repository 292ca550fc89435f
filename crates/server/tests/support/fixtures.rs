//! Std-only test fixtures shared by the crate's unit tests (`lib.rs`
//! pulls this file in under `cfg(test)`) and the workspace's served
//! suites (through `tests/support/served.rs`).

/// A CSV with clear peaks buried among falls, big enough that a
/// threshold above every real score would prune everything.
pub fn haystack_csv() -> String {
    let mut csv = String::from("z,x,y");
    for series in 0..12 {
        for t in 0..16 {
            let y = if series % 5 == 2 {
                if t < 8 {
                    t as f64
                } else {
                    16.0 - t as f64
                }
            } else {
                16.0 - t as f64 - 0.05 * series as f64
            };
            csv.push_str(&format!("\ns{series},{t},{y}"));
        }
    }
    csv
}

/// Reserves an ephemeral port and immediately frees it: an endpoint
/// that refuses connections — the shape of a replica that never came
/// up.
pub fn dead_endpoint() -> String {
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let endpoint = reserved.local_addr().unwrap().to_string();
    drop(reserved);
    endpoint
}
