//! The Communix plugin (§III-A, §III-C).
//!
//! "The Communix plugin, implemented on top of Dimmunix, sends the
//! deadlock signatures to the Communix server, right after Dimmunix
//! produces the signatures." Before sending, it "attaches to each call
//! stack frame of the signature the hash of the class bytecode containing
//! that frame" — the version identity the agent's validation checks on
//! the receiving side.

use std::collections::HashMap;

use communix_bytecode::Program;
use communix_client::{upload_batch, Connector, SyncError};
use communix_crypto::Digest;
use communix_dimmunix::{CallStack, SigEntry, Signature};
use communix_net::AddResult;
use communix_net::EncryptedId;

/// Attaches bytecode hashes to outgoing signatures and uploads them.
#[derive(Debug, Clone, Default)]
pub struct CommunixPlugin {
    hashes: HashMap<String, Digest>,
}

impl CommunixPlugin {
    /// Creates a plugin over the application's class-hash index.
    pub fn new(hashes: impl IntoIterator<Item = (String, Digest)>) -> Self {
        CommunixPlugin {
            hashes: hashes.into_iter().collect(),
        }
    }

    /// Creates a plugin covering every class of `program` — the common
    /// case, since Dimmunix only produces frames for executed (hence
    /// loaded) classes.
    pub fn for_program(program: &Program) -> Self {
        CommunixPlugin::new(
            program
                .hash_index()
                .into_iter()
                .map(|(k, v)| (k.as_str().to_string(), v)),
        )
    }

    /// Number of classes the plugin can hash.
    pub fn class_count(&self) -> usize {
        self.hashes.len()
    }

    /// The class-hash index: bytecode hash per class name. A node's
    /// agent validates against this same index at start-up and
    /// shutdown, so each class is hashed once per node.
    pub fn class_hashes(&self) -> &HashMap<String, Digest> {
        &self.hashes
    }

    /// Returns `sig` with the declaring class's bytecode hash attached to
    /// every frame. Frames whose class is unknown (should not happen for
    /// signatures produced by the local Dimmunix) keep their existing
    /// hash field.
    pub fn attach_hashes(&self, sig: &Signature) -> Signature {
        let fix_stack = |stack: &CallStack| -> CallStack {
            let mut out = stack.clone();
            for frame in out.frames_mut() {
                if let Some(h) = self.hashes.get(frame.site.class.as_ref()) {
                    frame.hash = Some(*h);
                }
            }
            out
        };
        Signature::new(
            sig.entries()
                .iter()
                .map(|e| SigEntry::new(fix_stack(&e.outer), fix_stack(&e.inner)))
                .collect(),
            sig.origin(),
        )
    }

    /// Whether every frame of `sig` carries a hash (i.e. the signature is
    /// ready for upload).
    pub fn fully_hashed(&self, sig: &Signature) -> bool {
        sig.entries().iter().all(|e| {
            e.outer
                .frames()
                .iter()
                .chain(e.inner.frames())
                .all(|f| f.hash.is_some())
        })
    }

    /// Hash-attaches every signature and uploads them all in one
    /// `ADD_BATCH` round trip. Returns the server's per-item verdicts in
    /// input order.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on transport or protocol failures.
    pub fn upload_all(
        &self,
        connector: &mut dyn Connector,
        sender: EncryptedId,
        sigs: &[Signature],
    ) -> Result<Vec<AddResult>, SyncError> {
        upload_batch(
            connector,
            sigs.iter()
                .map(|sig| (sender, self.attach_hashes(sig).to_string()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_bytecode::{LockExpr, ProgramBuilder};
    use communix_dimmunix::Frame;
    use communix_net::{Reply, Request};

    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        b.class("app.C")
            .plain_method("m", |s| {
                s.sync(LockExpr::global("A"), |s| {
                    s.sync(LockExpr::global("B"), |_| {});
                });
            })
            .done();
        b.build()
    }

    fn raw_sig() -> Signature {
        let cs = |l: u32| -> CallStack { vec![Frame::new("app.C", "m", l)].into_iter().collect() };
        Signature::local(vec![
            SigEntry::new(cs(2), cs(3)),
            SigEntry::new(cs(3), cs(2)),
        ])
    }

    #[test]
    fn attaches_hashes_to_known_classes() {
        let p = program();
        let plugin = CommunixPlugin::for_program(&p);
        let sig = raw_sig();
        assert!(!plugin.fully_hashed(&sig));
        let hashed = plugin.attach_hashes(&sig);
        assert!(plugin.fully_hashed(&hashed));
        let expected = p.class("app.C").unwrap().bytecode_hash();
        for e in hashed.entries() {
            assert_eq!(e.outer.frames()[0].hash, Some(expected));
        }
        // Site identity untouched.
        assert!(hashed.same_bug(&sig));
    }

    #[test]
    fn unknown_class_frames_left_alone() {
        let plugin = CommunixPlugin::new(Vec::<(String, Digest)>::new());
        let hashed = plugin.attach_hashes(&raw_sig());
        assert!(!plugin.fully_hashed(&hashed));
        assert_eq!(plugin.class_count(), 0);
    }

    #[test]
    fn upload_all_batches_hashed_texts() {
        let p = program();
        let plugin = CommunixPlugin::for_program(&p);
        let mut seen: Vec<String> = Vec::new();
        let mut conn = |req: Request| -> Result<Reply, String> {
            match req {
                Request::AddBatch { adds } => {
                    seen.extend(adds.iter().map(|a| a.sig_text.clone()));
                    Ok(Reply::BatchAck {
                        results: adds
                            .iter()
                            .map(|_| AddResult {
                                accepted: true,
                                reason: String::new(),
                            })
                            .collect(),
                    })
                }
                other => Err(format!("expected ADD_BATCH, got {other:?}")),
            }
        };
        let sigs = vec![raw_sig(), raw_sig()];
        let results = plugin.upload_all(&mut conn, [1u8; 16], &sigs).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(seen.len(), 2, "both signatures in one round trip");
        for text in seen {
            let sent: Signature = text.parse().unwrap();
            assert!(plugin.fully_hashed(&sent));
        }
    }
}
