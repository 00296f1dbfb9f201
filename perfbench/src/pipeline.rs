//! The server-side pipeline under test: a leader ledger and one replica,
//! both on `FileStore`, fed pre-signed entries.
//!
//! An op is acknowledged once the leader has sealed (and filled any due
//! summary slot), made the block durable, and the replica has applied it:
//! intake → seal → durable → replica apply.

use std::path::{Path, PathBuf};

use seldel_chain::{BlockNumber, Entry, FileStore, FsyncPolicy, Timestamp};
use seldel_core::{ChainConfig, CoreError, SelectiveLedger};

use crate::trace::Tracer;

pub type Ledger = SelectiveLedger<FileStore>;

/// Opens a ledger over `dir` with the hot-cache capacity and fsync policy
/// set explicitly, so `SELDEL_HOT_CACHE_BLOCKS` / `SELDEL_FSYNC_POLICY`
/// cannot change what is measured.
pub fn open_ledger(dir: &Path, config: &ChainConfig, cache: usize) -> Result<Ledger, CoreError> {
    let mut store = FileStore::open(dir)?;
    store.set_hot_cache_capacity(cache);
    store.set_fsync_policy(FsyncPolicy::OnFill);
    SelectiveLedger::builder(config.clone())
        .store_backend::<FileStore>()
        .open_store(store)
}

/// Leader plus replica.
pub struct Pipeline {
    pub leader: Ledger,
    pub replica: Ledger,
    pub leader_dir: PathBuf,
    pub config: ChainConfig,
}

/// What one acknowledged write op did.
#[derive(Debug, Clone, Copy)]
pub struct Sealed {
    /// The payload block sealed by the op.
    pub number: BlockNumber,
    /// Whether a summary slot was filled right after it.
    pub sigma: bool,
}

impl Pipeline {
    /// Creates an empty leader and replica under `dir`.
    pub fn create(dir: &Path, config: &ChainConfig, cache: usize) -> Result<Pipeline, CoreError> {
        let leader_dir = dir.join("leader");
        Ok(Pipeline {
            leader: open_ledger(&leader_dir, config, cache)?,
            replica: open_ledger(&dir.join("replica"), config, cache)?,
            leader_dir,
            config: config.clone(),
        })
    }

    /// Submits `entries`, seals them at `now`, commits and replicates.
    /// Every layer call is timed by `tracer` when it is on.
    pub fn write_op(
        &mut self,
        entries: Vec<Entry>,
        now: Timestamp,
        tracer: &mut Tracer,
    ) -> Result<Sealed, CoreError> {
        for entry in entries {
            tracer.call("ledger.submit", || self.leader.submit_entry(entry))?;
        }
        let t0 = tracer.start();
        let sealed = self.leader.seal_block(now);
        let number = *sealed.as_ref().unwrap_or(&BlockNumber(0));
        let sigma = self.config.is_summary_slot(number.next());
        let seal_name = if sigma {
            "ledger.sigma_seal"
        } else {
            "ledger.seal"
        };
        tracer.stop(seal_name, t0, sealed.is_ok());
        let number = sealed?;
        tracer.time("ledger.commit_durable", || self.leader.commit_durable());
        let block = tracer.time("chain.get_block", || {
            self.leader
                .chain()
                .get(number)
                .map(|b| b.block().clone())
                .expect("a just-sealed block is live")
        });
        let apply_name = if sigma {
            "ledger.apply_sigma"
        } else {
            "ledger.apply"
        };
        tracer.call(apply_name, || self.replica.apply_block(block))?;
        Ok(Sealed { number, sigma })
    }

    /// Closes the leader and opens its directory again from disk (replay
    /// and full validation) with hot-cache capacity `cache`.
    pub fn reopen_leader(self, cache: usize) -> Result<Pipeline, CoreError> {
        let Pipeline {
            leader,
            replica,
            leader_dir,
            config,
        } = self;
        drop(leader);
        Ok(Pipeline {
            leader: open_ledger(&leader_dir, &config, cache)?,
            replica,
            leader_dir,
            config,
        })
    }
}
