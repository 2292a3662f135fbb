//! Named streaming sessions, one per served model.

use crate::session::{StreamConfig, StreamSession};
use kgraph::pipeline::KGraphModel;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Sessions keyed by model name. Writes (ingest, refresh) serialise on the
/// per-session mutex; model *readers* never touch this registry at all —
/// they keep reading whatever `Arc` snapshot they hold.
///
/// A name's served model, session and journal change only under its
/// session lock, which comes before the registry's, the model store's or
/// a durability slot's. [`SessionRegistry::remove_if_empty`] locks a
/// session under the registry lock only when nothing else holds it, so
/// it never waits.
pub struct SessionRegistry {
    cfg: StreamConfig,
    sessions: Mutex<HashMap<String, Arc<Mutex<StreamSession>>>>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl SessionRegistry {
    /// Registry opening sessions with `cfg`.
    pub fn new(cfg: StreamConfig) -> Self {
        SessionRegistry {
            cfg,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// The session for `name`, opened over `model` if the name has none.
    /// An open session is returned whatever model it streams into.
    pub fn session_for(&self, name: &str, model: &Arc<KGraphModel>) -> Arc<Mutex<StreamSession>> {
        let model = Arc::clone(model);
        let open = || Arc::new(Mutex::new(StreamSession::new(model, self.cfg.clone())));
        let mut sessions = lock(&self.sessions);
        Arc::clone(sessions.entry(name.to_string()).or_insert_with(open))
    }

    /// Installs a pre-built (e.g. crash-recovered) session under `name`,
    /// replacing any existing one.
    pub fn install(&self, name: &str, session: StreamSession) -> Arc<Mutex<StreamSession>> {
        let session = Arc::new(Mutex::new(session));
        lock(&self.sessions).insert(name.to_string(), Arc::clone(&session));
        session
    }

    /// The config new sessions are opened with.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The session for `name` if one is open, without creating or
    /// validating it.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<StreamSession>>> {
        lock(&self.sessions).get(name).cloned()
    }

    /// Drops the session of `name` (e.g. when its model is deleted).
    pub fn remove(&self, name: &str) -> bool {
        lock(&self.sessions).remove(name).is_some()
    }

    /// Drops the session of `name` when nothing but the registry holds it
    /// and it has no open series: what a refused first ingest or a re-fit
    /// leaves.
    pub fn remove_if_empty(&self, name: &str) {
        let mut sessions = lock(&self.sessions);
        let unused =
            |s: &Arc<Mutex<StreamSession>>| Arc::strong_count(s) == 1 && lock(s).open_series() == 0;
        if sessions.get(name).is_some_and(unused) {
            sessions.remove(name);
        }
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
