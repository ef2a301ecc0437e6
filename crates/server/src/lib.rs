//! # charles-server
//!
//! The multi-tenant serving layer for ChARLES: a dependency-free JSON
//! wire protocol and a threaded `std::net` HTTP/1.1 front end over
//! [`charles_core::SessionManager`]'s cached session plane.
//!
//! The crate has three layers, each usable on its own:
//!
//! - [`json`] — a hand-rolled JSON value/parser/encoder (the build
//!   environment is offline; no serde);
//! - [`proto`] — the versioned wire protocol: [`proto::Request`]
//!   envelopes, serializable result views ([`proto::WireQueryResult`],
//!   [`proto::RankedSummary`], [`proto::WireDatasetStats`]), and typed
//!   [`proto::ErrorEnvelope`]s;
//! - [`server`] — the front end: bounded worker pool, REST-style routes
//!   plus `/v1/rpc`, backpressure via `503`, graceful shutdown.
//!
//! [`client`] adds the few lines of raw-`TcpStream` HTTP needed to drive
//! a server from examples, benches, and smoke tests.
//!
//! ```no_run
//! use charles_core::{ManagerConfig, SessionManager};
//! use charles_server::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let manager = Arc::new(SessionManager::new(ManagerConfig::default()));
//! // manager.register_csv("county", "v2016.csv", "v2017.csv", None);
//! let mut server = Server::start(manager, ServerConfig::default()).unwrap();
//! println!("serving on http://{}", server.local_addr());
//! // POST /v1/datasets/county/query  {"target": "base_salary"}
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod json;
pub mod proto;
pub mod server;

pub use client::{http_request, HttpClient, HttpResponse};
pub use json::{Json, JsonError};
pub use proto::{
    ErrorEnvelope, ProtoError, RankedSummary, Request, WireDatasetStats, WireQuery,
    WireQueryResult, PROTOCOL_VERSION,
};
pub use server::{dispatch, Server, ServerConfig};
