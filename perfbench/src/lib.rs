//! The Aria benchmark: one command that drives an in-process
//! `AriaServer` over loopback with the real cipher suite, checks every
//! reply against a version model, and reports end-to-end metrics or,
//! in a traced run, per-layer metrics measured from outside each layer.
//! See `README.md` in this directory.

pub mod layers;
pub mod load;
pub mod report;
pub mod rig;
pub mod workload;
