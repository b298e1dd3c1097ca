//! No-op JIT backend for targets without native support (or builds with
//! `--cfg powerchop_force_interp`). Presents the same API surface as the
//! real backend so the facade and the dispatch loop compile unchanged; the
//! facade never calls `run` because `SUPPORTED` is `false`.

use std::sync::Arc;

use powerchop_gisa::{Cpu, GisaError, Inst, Memory, Pc};
use powerchop_uarch::core::CoreModel;

use crate::region_cache::TranslationId;

pub(super) const SUPPORTED: bool = false;

pub(super) enum CompileOutcome {
    #[allow(dead_code)]
    Compiled {
        code_bytes: usize,
    },
    Ineligible,
}

pub(super) enum RunAttempt {
    #[allow(dead_code)]
    Ran(Result<u64, GisaError>),
    #[allow(dead_code)]
    Ineligible,
    Unknown,
}

pub(super) struct NativeEngine;

impl NativeEngine {
    pub(super) fn new() -> Self {
        NativeEngine
    }

    pub(super) fn try_run(
        &mut self,
        _id: TranslationId,
        _cpu: &mut Cpu,
        _mem: &mut Memory,
        _core: &mut CoreModel,
    ) -> RunAttempt {
        RunAttempt::Unknown
    }

    pub(super) fn compile(
        &mut self,
        _id: TranslationId,
        _trace: &Arc<[Pc]>,
        _insts: &Arc<[Inst]>,
    ) -> CompileOutcome {
        CompileOutcome::Ineligible
    }

    pub(super) fn code_len(&self, _id: TranslationId) -> Option<usize> {
        None
    }

    pub(super) fn resident(&self) -> usize {
        0
    }

    pub(super) fn remove(&mut self, _id: TranslationId) {}

    pub(super) fn clear(&mut self) {}
}
