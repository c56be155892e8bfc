//! Fixture: one sleep in a serving loop (one violation), plus a
//! suppressed backoff sleep that must stay silent.

fn poll(stop: &std::sync::atomic::AtomicBool) {
    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

fn backoff(delay: std::time::Duration) {
    // lint:allow(no-sleep-in-service) the retry backoff is the point
    std::thread::sleep(delay);
}
