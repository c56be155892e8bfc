//! Fixture: a message sent with `write_all` in the data plane (one
//! violation), a suppressed one, and a test module, which is exempt.

use std::io::Write;

fn send(stream: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let message = [head, body].concat();
    stream.write_all(&message)
}

fn send_canned(stream: &mut impl Write, message: &[u8]) -> std::io::Result<()> {
    // lint:allow(one-write-per-message) one buffer is already one write
    stream.write_all(message)
}

#[cfg(test)]
mod tests {
    #[test]
    fn raw_peer() {
        let mut out = Vec::new();
        std::io::Write::write_all(&mut out, b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
    }
}
