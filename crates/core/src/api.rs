//! The Inbound API (§4.3): the HTTP-shaped web interface H2Cloud serves.
//!
//! The paper's users "access H2Cloud via a web browser or a native client,
//! by sending HTTP messages to … the H2Layer", through three API families:
//! **Account APIs** (create/delete an account), **Directory APIs**
//! (traverse/modify directory structure) and **File Content APIs**
//! (READ/WRITE). This module models that surface as typed request/response
//! values — the routing, status-code mapping and parameter handling of the
//! real HTTP server without the socket.
//!
//! Routes:
//!
//! | method & path                              | operation |
//! |--------------------------------------------|-----------|
//! | `PUT    /v1/<account>`                     | create account |
//! | `DELETE /v1/<account>`                     | delete account |
//! | `PUT    /v1/<a>/fs/<path>?type=dir`        | MKDIR |
//! | `PUT    /v1/<a>/fs/<path>` (body)          | WRITE |
//! | `GET    /v1/<a>/fs/<path>`                 | READ |
//! | `GET    /v1/<a>/fs/<path>?op=list`         | LIST (names) |
//! | `GET    /v1/<a>/fs/<path>?op=list&detail=1`| LIST (detailed) |
//! | `GET    /v1/<a>/fs/<path>?op=stat`         | STAT |
//! | `DELETE /v1/<a>/fs/<path>?type=dir`        | RMDIR |
//! | `DELETE /v1/<a>/fs/<path>`                 | delete file |
//! | `POST   /v1/<a>/fs/<path>?op=move&dest=…`  | MOVE/RENAME |
//! | `POST   /v1/<a>/fs/<path>?op=copy&dest=…`  | COPY |

use std::time::Duration;

use h2fsapi::{CloudFs, DirEntry, FileContent, FsPath};
use h2util::{H2Error, OpCtx};

use crate::fs::H2Cloud;

/// HTTP-ish method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Put,
    Post,
    Delete,
}

/// A parsed inbound request.
#[derive(Debug, Clone)]
pub struct WebRequest {
    pub method: Method,
    /// Request path, e.g. `/v1/alice/fs/home/notes.txt`.
    pub path: String,
    /// Query parameters.
    pub query: Vec<(String, String)>,
    /// Body for file WRITEs.
    pub body: Option<FileContent>,
}

impl WebRequest {
    pub fn new(method: Method, path: &str) -> Self {
        WebRequest {
            method,
            path: path.to_string(),
            query: Vec::new(),
            body: None,
        }
    }

    pub fn with_query(mut self, key: &str, value: &str) -> Self {
        self.query.push((key.to_string(), value.to_string()));
        self
    }

    pub fn with_body(mut self, body: FileContent) -> Self {
        self.body = Some(body);
        self
    }

    fn q(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    Empty,
    /// Error or informational message.
    Message(String),
    /// Names-only listing.
    Names(Vec<String>),
    /// Detailed listing or a single stat entry.
    Entries(Vec<DirEntry>),
    /// File content.
    Content(FileContent),
}

/// An outbound response: status code, body, and the operation's virtual
/// service time (what the paper measures, RTT excluded).
#[derive(Debug, Clone)]
pub struct WebResponse {
    pub status: u16,
    pub body: ResponseBody,
    pub op_time: Duration,
}

impl WebResponse {
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn status_of(e: &H2Error) -> u16 {
    match e {
        H2Error::NotFound(_) | H2Error::NoSuchAccount(_) => 404,
        H2Error::AlreadyExists(_) | H2Error::Conflict(_) => 409,
        H2Error::NotADirectory(_) | H2Error::IsADirectory(_) => 409,
        H2Error::InvalidPath(_) => 400,
        H2Error::Unavailable(_) => 503,
        H2Error::Unsupported(_) => 405,
        H2Error::Corrupt(_) => 500,
    }
}

/// The API front end over an [`H2Cloud`].
pub struct H2Api<'a> {
    fs: &'a H2Cloud,
}

impl<'a> H2Api<'a> {
    pub fn new(fs: &'a H2Cloud) -> Self {
        H2Api { fs }
    }

    /// Handle one request end to end.
    pub fn handle(&self, req: &WebRequest) -> WebResponse {
        let mut ctx = OpCtx::new(self.fs.cost_model());
        let result = self.dispatch(req, &mut ctx);
        let op_time = ctx.elapsed();
        match result {
            Ok((status, body)) => WebResponse {
                status,
                body,
                op_time,
            },
            Err(e) => WebResponse {
                status: status_of(&e),
                body: ResponseBody::Message(e.to_string()),
                op_time,
            },
        }
    }

    fn dispatch(&self, req: &WebRequest, ctx: &mut OpCtx) -> Result<(u16, ResponseBody), H2Error> {
        // Route: /v1/<account>[/fs/<path...>]
        let rest = req
            .path
            .strip_prefix("/v1/")
            .ok_or_else(|| H2Error::InvalidPath(format!("unknown route {}", req.path)))?;
        let (account, fs_path) = match rest.split_once('/') {
            None => (rest, None),
            Some((acct, tail)) => {
                let path = tail
                    .strip_prefix("fs")
                    .ok_or_else(|| H2Error::InvalidPath(format!("unknown route {}", req.path)))?;
                let path = if path.is_empty() { "/" } else { path };
                (acct, Some(FsPath::parse(path)?))
            }
        };
        if account.is_empty() {
            return Err(H2Error::InvalidPath("missing account".into()));
        }

        match (req.method, fs_path) {
            // ----- Account APIs -----
            (Method::Put, None) => {
                self.fs.create_account(ctx, account)?;
                Ok((201, ResponseBody::Empty))
            }
            (Method::Delete, None) => {
                self.fs.delete_account(ctx, account)?;
                Ok((204, ResponseBody::Empty))
            }
            (Method::Get, None) if req.q("op") == Some("metrics") => {
                // System monitoring (§4.2): per-operation latency summary
                // and every counter of the middlewares and the cluster.
                Ok((200, ResponseBody::Message(self.fs.metrics().render())))
            }
            (Method::Get, None) if req.q("op") == Some("trace") => {
                // Most recent sampled operation traces as JSON (`n` caps the
                // count, default 32). Empty unless `trace_sample` > 0.
                let n = req
                    .q("n")
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or(32);
                let traces = self.fs.recent_traces(n);
                Ok((
                    200,
                    ResponseBody::Message(h2util::trace::trace_json(&traces)),
                ))
            }
            (_, None) => Err(H2Error::Unsupported("method on account route")),

            // ----- Directory & File Content APIs -----
            (Method::Get, Some(path)) => match req.q("op") {
                Some("list") => {
                    if req.q("detail").is_some() {
                        let entries = self.fs.list_detailed(ctx, account, &path)?;
                        Ok((200, ResponseBody::Entries(entries)))
                    } else {
                        let names = self.fs.list(ctx, account, &path)?;
                        Ok((200, ResponseBody::Names(names)))
                    }
                }
                Some("stat") => {
                    let entry = self.fs.stat(ctx, account, &path)?;
                    Ok((200, ResponseBody::Entries(vec![entry])))
                }
                Some(other) => Err(H2Error::InvalidPath(format!("unknown op {other:?}"))),
                None => {
                    let content = self.fs.read(ctx, account, &path)?;
                    Ok((200, ResponseBody::Content(content)))
                }
            },
            (Method::Put, Some(path)) => {
                if req.q("type") == Some("dir") {
                    self.fs.mkdir(ctx, account, &path)?;
                    Ok((201, ResponseBody::Empty))
                } else {
                    let body = req
                        .body
                        .clone()
                        .ok_or_else(|| H2Error::InvalidPath("file PUT requires a body".into()))?;
                    self.fs.write(ctx, account, &path, body)?;
                    Ok((201, ResponseBody::Empty))
                }
            }
            (Method::Delete, Some(path)) => {
                if req.q("type") == Some("dir") {
                    self.fs.rmdir(ctx, account, &path)?;
                } else {
                    self.fs.delete_file(ctx, account, &path)?;
                }
                Ok((204, ResponseBody::Empty))
            }
            (Method::Post, Some(path)) => {
                let dest = req
                    .q("dest")
                    .ok_or_else(|| H2Error::InvalidPath("POST requires dest".into()))?;
                let dest = FsPath::parse(dest)?;
                match req.q("op") {
                    Some("move") => {
                        self.fs.mv(ctx, account, &path, &dest)?;
                        Ok((200, ResponseBody::Empty))
                    }
                    Some("copy") => {
                        self.fs.copy(ctx, account, &path, &dest)?;
                        Ok((200, ResponseBody::Empty))
                    }
                    other => Err(H2Error::InvalidPath(format!("unknown op {other:?}"))),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::H2Config;
    use h2fsapi::EntryKind;

    fn api_fs() -> H2Cloud {
        H2Cloud::new(H2Config::for_test())
    }

    fn ok(resp: WebResponse) -> WebResponse {
        assert!(
            resp.is_success(),
            "expected success, got {} ({:?})",
            resp.status,
            resp.body
        );
        resp
    }

    #[test]
    fn account_lifecycle_over_http() {
        let fs = api_fs();
        let api = H2Api::new(&fs);
        let r = ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        assert_eq!(r.status, 201);
        // Duplicate account → 409.
        assert_eq!(
            api.handle(&WebRequest::new(Method::Put, "/v1/alice"))
                .status,
            409
        );
        assert_eq!(
            api.handle(&WebRequest::new(Method::Delete, "/v1/alice"))
                .status,
            204
        );
        assert_eq!(
            api.handle(&WebRequest::new(Method::Delete, "/v1/alice"))
                .status,
            404
        );
    }

    #[test]
    fn file_write_read_roundtrip_over_http() {
        let fs = api_fs();
        let api = H2Api::new(&fs);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        ok(api
            .handle(&WebRequest::new(Method::Put, "/v1/alice/fs/docs").with_query("type", "dir")));
        ok(api.handle(
            &WebRequest::new(Method::Put, "/v1/alice/fs/docs/a.txt")
                .with_body(FileContent::from_str("via http")),
        ));
        let r = ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice/fs/docs/a.txt")));
        assert_eq!(
            r.body,
            ResponseBody::Content(FileContent::from_str("via http"))
        );
        assert!(r.op_time >= Duration::ZERO);
    }

    #[test]
    fn listing_and_stat_routes() {
        let fs = api_fs();
        let api = H2Api::new(&fs);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice/fs/d").with_query("type", "dir")));
        ok(api.handle(
            &WebRequest::new(Method::Put, "/v1/alice/fs/d/f").with_body(FileContent::Simulated(42)),
        ));
        let names =
            ok(api
                .handle(&WebRequest::new(Method::Get, "/v1/alice/fs/d").with_query("op", "list")));
        assert_eq!(names.body, ResponseBody::Names(vec!["f".into()]));
        let detailed = ok(api.handle(
            &WebRequest::new(Method::Get, "/v1/alice/fs/d")
                .with_query("op", "list")
                .with_query("detail", "1"),
        ));
        match detailed.body {
            ResponseBody::Entries(e) => {
                assert_eq!(e.len(), 1);
                assert_eq!(e[0].size, 42);
            }
            other => panic!("expected entries, got {other:?}"),
        }
        let stat =
            ok(api
                .handle(&WebRequest::new(Method::Get, "/v1/alice/fs/d").with_query("op", "stat")));
        match stat.body {
            ResponseBody::Entries(e) => assert_eq!(e[0].kind, EntryKind::Directory),
            other => panic!("expected entries, got {other:?}"),
        }
    }

    #[test]
    fn move_copy_delete_routes() {
        let fs = api_fs();
        let api = H2Api::new(&fs);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice/fs/a").with_query("type", "dir")));
        ok(api.handle(
            &WebRequest::new(Method::Put, "/v1/alice/fs/a/f").with_body(FileContent::from_str("x")),
        ));
        ok(api.handle(
            &WebRequest::new(Method::Post, "/v1/alice/fs/a")
                .with_query("op", "copy")
                .with_query("dest", "/b"),
        ));
        ok(api.handle(
            &WebRequest::new(Method::Post, "/v1/alice/fs/a")
                .with_query("op", "move")
                .with_query("dest", "/c"),
        ));
        assert_eq!(
            api.handle(&WebRequest::new(Method::Get, "/v1/alice/fs/a/f"))
                .status,
            404
        );
        ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice/fs/b/f")));
        ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice/fs/c/f")));
        assert_eq!(
            api.handle(&WebRequest::new(Method::Delete, "/v1/alice/fs/c/f"))
                .status,
            204
        );
        assert_eq!(
            api.handle(
                &WebRequest::new(Method::Delete, "/v1/alice/fs/b").with_query("type", "dir")
            )
            .status,
            204
        );
    }

    #[test]
    fn error_mapping_matches_http_semantics() {
        let fs = api_fs();
        let api = H2Api::new(&fs);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        // 404 unknown file.
        assert_eq!(
            api.handle(&WebRequest::new(Method::Get, "/v1/alice/fs/ghost"))
                .status,
            404
        );
        // 400 bad route and bad path.
        assert_eq!(
            api.handle(&WebRequest::new(Method::Get, "/wrong/route"))
                .status,
            400
        );
        assert_eq!(
            api.handle(&WebRequest::new(Method::Get, "/v1/alice/fs/a/../b"))
                .status,
            400
        );
        // 400 write without body.
        assert_eq!(
            api.handle(&WebRequest::new(Method::Put, "/v1/alice/fs/nobody"))
                .status,
            400
        );
        // 409 writing over a directory.
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice/fs/d").with_query("type", "dir")));
        assert_eq!(
            api.handle(
                &WebRequest::new(Method::Put, "/v1/alice/fs/d")
                    .with_body(FileContent::from_str("x"))
            )
            .status,
            409
        );
        // 400 POST without dest; unknown op.
        assert_eq!(
            api.handle(&WebRequest::new(Method::Post, "/v1/alice/fs/d").with_query("op", "move"))
                .status,
            400
        );
        assert_eq!(
            api.handle(
                &WebRequest::new(Method::Post, "/v1/alice/fs/d")
                    .with_query("op", "frobnicate")
                    .with_query("dest", "/e")
            )
            .status,
            400
        );
        // 405 method on account route.
        assert_eq!(
            api.handle(&WebRequest::new(Method::Get, "/v1/alice"))
                .status,
            405
        );
    }

    #[test]
    fn metrics_route_reports_operation_histograms() {
        let fs = api_fs();
        let api = H2Api::new(&fs);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice/fs/d").with_query("type", "dir")));
        ok(api.handle(
            &WebRequest::new(Method::Put, "/v1/alice/fs/d/f").with_body(FileContent::from_str("x")),
        ));
        ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice/fs/d/f")));
        let r =
            ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice").with_query("op", "metrics")));
        match r.body {
            ResponseBody::Message(text) => {
                assert!(text.contains("MKDIR"), "{text}");
                assert!(text.contains("WRITE"), "{text}");
                assert!(text.contains("READ"), "{text}");
                assert!(text.contains("n=1"), "{text}");
                // Latency percentiles are part of the monitoring surface.
                assert!(text.contains("p50="), "{text}");
                assert!(text.contains("p95="), "{text}");
                assert!(text.contains("p99="), "{text}");
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn metrics_route_reports_ring_cache_counters() {
        // `for_test()` enables the NameRing cache, so the counters are
        // registered and must show up in the monitoring output; deep reads
        // after a warm-up produce actual hits.
        let fs = api_fs();
        let api = H2Api::new(&fs);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice/fs/d").with_query("type", "dir")));
        ok(api.handle(
            &WebRequest::new(Method::Put, "/v1/alice/fs/d/f").with_body(FileContent::from_str("x")),
        ));
        for _ in 0..3 {
            ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice/fs/d/f")));
        }
        let r =
            ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice").with_query("op", "metrics")));
        match r.body {
            ResponseBody::Message(text) => {
                assert!(text.contains("ring_cache_hits"), "{text}");
                assert!(text.contains("ring_cache_misses"), "{text}");
                assert!(text.contains("gets_saved"), "{text}");
                let hits: u64 = fs.metrics().counter_value("ring_cache_hits");
                assert!(hits > 0, "warm resolves produced no cache hits:\n{text}");
            }
            other => panic!("expected message, got {other:?}"),
        }
        // A cache-off instance registers no counters — clean output.
        let plain = H2Cloud::new(H2Config {
            cache_capacity: 0,
            ..H2Config::for_test()
        });
        let api = H2Api::new(&plain);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/bob")));
        let r =
            ok(api.handle(&WebRequest::new(Method::Get, "/v1/bob").with_query("op", "metrics")));
        match r.body {
            ResponseBody::Message(text) => {
                assert!(!text.contains("ring_cache"), "{text}");
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn metrics_route_reports_fault_and_retry_counters() {
        // The loss-path counters are pre-registered at layer construction,
        // so operators see them (at 0) before the first failure — a flat-
        // lining gauge is monitorable, an absent one is not. The cluster
        // registers its own counters when it is built, on the same
        // registry, so they are listed from the start too.
        let fs = api_fs();
        let api = H2Api::new(&fs);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        let r =
            ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice").with_query("op", "metrics")));
        match r.body {
            ResponseBody::Message(text) => {
                assert!(text.contains(crate::layer::GOSSIP_APPLY_FAILURES), "{text}");
                assert!(text.contains(crate::middleware::MERGE_FAILURES), "{text}");
                assert!(text.contains(h2util::retry::OP_RETRIES), "{text}");
                assert!(text.contains(h2util::retry::OP_GAVE_UP), "{text}");
                assert!(text.contains(h2util::retry::RETRY_BACKOFF_MS), "{text}");
                use h2util::trace::{
                    CAS_BLOCKS_SHARED, CAS_BLOCKS_WRITTEN, DEDUP_BYTES_SAVED, HEDGED_READS,
                    MIGRATION_DUAL_WRITES, MIGRATION_KEYS_COPIED, MIGRATION_PARTS_MOVED,
                    MIGRATION_READ_RESCUES,
                };
                for name in [
                    HEDGED_READS,
                    MIGRATION_PARTS_MOVED,
                    MIGRATION_KEYS_COPIED,
                    MIGRATION_READ_RESCUES,
                    MIGRATION_DUAL_WRITES,
                    CAS_BLOCKS_WRITTEN,
                    CAS_BLOCKS_SHARED,
                    DEDUP_BYTES_SAVED,
                ] {
                    let line = text
                        .lines()
                        .find(|l| l.split_whitespace().next() == Some(name))
                        .unwrap_or_else(|| panic!("{name} missing:\n{text}"));
                    assert_eq!(line.split_whitespace().nth(1), Some("0"), "{line}");
                }
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn cluster_counters_are_current_without_a_render() {
        // No `op=metrics` call anywhere: the CAS plane counts straight
        // into the registry, so the second identical upload shows at once.
        // The artifact fills one leaf: a shorter file is one whole object,
        // which shares nothing.
        let fs = api_fs();
        let api = H2Api::new(&fs);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        let leaf = h2util::chunker::ChunkParams::default().min as usize;
        let body = FileContent::Inline(h2util::SharedBuf::from_slice(&vec![b'a'; leaf]));
        for f in ["/v1/alice/fs/a", "/v1/alice/fs/b"] {
            ok(api.handle(&WebRequest::new(Method::Put, f).with_body(body.clone())));
        }
        let m = fs.metrics();
        assert!(m.counter_value(h2util::trace::CAS_BLOCKS_SHARED) > 0);
        assert!(m.counter_value(h2util::trace::DEDUP_BYTES_SAVED) > 0);
    }

    #[test]
    fn trace_route_returns_recent_root_spans() {
        // `for_test()` samples every op, so client traffic must surface as
        // root spans with nested middleware/cloud/replica stages, and the
        // per-stage histograms must land on the metrics route.
        let fs = api_fs();
        let api = H2Api::new(&fs);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice/fs/d").with_query("type", "dir")));
        ok(api.handle(
            &WebRequest::new(Method::Put, "/v1/alice/fs/d/f").with_body(FileContent::from_str("x")),
        ));
        ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice/fs/d/f")));
        let r =
            ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice").with_query("op", "trace")));
        match r.body {
            ResponseBody::Message(text) => {
                assert!(text.contains("\"traces\""), "{text}");
                assert!(text.contains("\"op\": \"WRITE\""), "{text}");
                assert!(text.contains("\"op\": \"READ\""), "{text}");
                // Stages from every layer of the stack appear.
                for stage in ["mw", "cloud", "quorum", "replica"] {
                    assert!(
                        text.contains(&format!("\"stage\": \"{stage}\"")),
                        "missing stage {stage}:\n{text}"
                    );
                }
                // Per-replica votes are recorded on the span notes.
                assert!(text.contains("\"vote\""), "{text}");
            }
            other => panic!("expected message, got {other:?}"),
        }
        // `n` bounds the number of root traces returned.
        let r = ok(api.handle(
            &WebRequest::new(Method::Get, "/v1/alice")
                .with_query("op", "trace")
                .with_query("n", "1"),
        ));
        match r.body {
            ResponseBody::Message(text) => {
                assert_eq!(text.matches("\"seq\"").count(), 1, "{text}");
            }
            other => panic!("expected message, got {other:?}"),
        }
        // Every stage that owns time has its histogram on the metrics
        // route; the retired quorum histogram is gone.
        let r =
            ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice").with_query("op", "metrics")));
        match r.body {
            ResponseBody::Message(text) => {
                for stage in h2util::trace::Stage::OWNERS {
                    if let Some(h) = stage.histogram() {
                        assert!(text.contains(h), "missing {h}:\n{text}");
                    }
                }
                let quorum = h2util::trace::STAGE_QUORUM_MS;
                assert!(!text.contains(quorum), "{quorum} is fed:\n{text}");
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn root_listing_works() {
        let fs = api_fs();
        let api = H2Api::new(&fs);
        ok(api.handle(&WebRequest::new(Method::Put, "/v1/alice")));
        let r =
            ok(api.handle(&WebRequest::new(Method::Get, "/v1/alice/fs/").with_query("op", "list")));
        assert_eq!(r.body, ResponseBody::Names(vec![]));
    }
}
