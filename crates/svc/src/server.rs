//! The TCP front door: [`proto`](crate::proto) frames over a socket,
//! one handler thread per connection, one shared [`Service`].
//!
//! Connections are long-lived: a client may send any number of request
//! frames and reads one response frame per request frame, in order.
//! A malformed frame gets a frame-level error response and the
//! connection stays open; the connection ends at clean EOF. Every
//! accepted stream has `TCP_NODELAY` set, so a reply never waits on the
//! client's delayed ACK (see [`proto`](crate::proto)).
//!
//! # Example
//!
//! ```
//! use ami_svc::server::Server;
//! use ami_svc::proto::{read_frame, write_frame};
//! use ami_svc::Service;
//! use std::sync::Arc;
//!
//! let server = Server::bind("127.0.0.1:0", Arc::new(Service::new(4))).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.serve());
//!
//! let mut conn = std::net::TcpStream::connect(addr).unwrap();
//! let request = r#"{"id": "doc", "threads": 1, "scenario": {
//!     "name": "server-doc", "rounds": 5,
//!     "topology": {"kind": "grid", "side": 3, "spacing_m": 30.0},
//!     "workload": {"kind": "gathering", "strategy": "minimum_energy"}}}"#;
//! write_frame(&mut conn, request.as_bytes()).unwrap();
//! let reply = read_frame(&mut conn).unwrap().unwrap();
//! assert!(String::from_utf8(reply).unwrap().contains("\"scenario_hash\""));
//! ```

use crate::proto::{
    decode_requests, encode_frame_error, encode_response, encode_responses, read_frame, write_frame,
};
use crate::Service;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;

/// A listening batch-service endpoint.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
}

impl Server {
    /// Binds `addr` (use port 0 to let the OS pick one).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<Service>) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            service,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections forever, one handler thread each. Returns
    /// only on an accept error.
    ///
    /// # Errors
    ///
    /// The accept failure that ended the loop.
    pub fn serve(self) -> io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            let service = Arc::clone(&self.service);
            std::thread::spawn(move || {
                // A dropped connection is the client's business, not a
                // server failure.
                let _ = handle_connection(stream, &service);
            });
        }
    }
}

/// Serves one connection until clean EOF or an I/O error.
fn handle_connection(mut stream: TcpStream, service: &Service) -> io::Result<()> {
    stream.set_nodelay(true)?;
    while let Some(payload) = read_frame(&mut stream)? {
        let reply = match std::str::from_utf8(&payload) {
            Err(_) => encode_frame_error("request frame is not UTF-8"),
            Ok(text) => match decode_requests(text) {
                Err(err) => encode_frame_error(&err.to_string()),
                Ok(frame) => {
                    if frame.batch {
                        let ids: Vec<String> =
                            frame.requests.iter().map(|r| r.id.clone()).collect();
                        let responses = service.submit_batch(&frame.requests);
                        encode_responses(&responses, &ids)
                    } else {
                        let request = &frame.requests[0];
                        let response = service.submit(request);
                        encode_response(&response, &request.id)
                    }
                }
            },
        };
        write_frame(&mut stream, reply.as_bytes())?;
    }
    Ok(())
}
