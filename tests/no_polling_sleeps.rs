//! Latency paths contain no polling sleeps: every wait in the engine
//! crate (service, server, scrape listener, watchdog) blocks on a socket,
//! a channel, or a condvar that the awaited event signals. Only the
//! trailing `#[cfg(test)]` module of a source file may sleep.

use std::path::Path;

#[test]
fn engine_sources_sleep_only_in_test_modules() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/engine/src");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("engine sources") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let production = src.split("#[cfg(test)]").next().unwrap_or("");
        for (i, line) in production.lines().enumerate() {
            assert!(
                !line.contains("sleep("),
                "{}:{}: sleeping outside a test module: {}",
                path.display(),
                i + 1,
                line.trim()
            );
        }
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} engine source files found");
}
