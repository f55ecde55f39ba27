//! # pdos-detect — reference detectors and defenses for pulsing DoS
//!
//! The defender's side of the DSN 2005 study. The paper models the
//! attacker's exposure abstractly as `(1 − γ)^κ`; this crate supplies
//! concrete instruments so the trade-off can be *measured* instead of
//! assumed:
//!
//! * [`rate::RateDetector`] — the classic average-utilization (flooding)
//!   detector the PDoS attack is designed to slip under;
//! * [`dtw::DtwPulseDetector`] — waveform matching with dynamic time
//!   warping, after the related work the paper cites (Sun/Lui/Yau), with
//!   the documented blind spot for sub-sample pulses;
//! * [`spectral::SpectralDetector`] — a periodogram sweep that finds the
//!   attack's period from the traffic's frequency content, shape-agnostic;
//! * [`cusum::CusumDetector`] — change-point detection localizing the
//!   attack's *onset* in a binned trace;
//! * [`defense::RandomizedRtoPolicy`] — the randomized-timeout defense,
//!   including the analysis of why it stops shrew attacks but not
//!   AIMD-based ones;
//! * [`streaming`] — the CUSUM, rate and spectral detectors as online
//!   state machines fed one bin at a time. Each statistic has one
//!   implementation: [`cusum::CusumDetector::scan`] is a fold of
//!   [`streaming::StreamingCusum`], and [`rate::RateDetector::run`] is a
//!   fold of the `observe` step that [`streaming::StreamingRate`] wraps.
//!
//! ## Example
//!
//! ```
//! use pdos_detect::rate::RateDetector;
//!
//! // 100 ms bins on a 15 Mbps link; a quiet series never alarms.
//! let det = RateDetector::conventional(15e6, 0.1);
//! let report = det.run(&[10_000; 50]);
//! assert!(!report.detected);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cusum;
pub mod defense;
pub mod dtw;
pub mod rate;
pub mod roc;
pub mod spectral;
pub mod streaming;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::cusum::{dispersion, CusumDetector, CusumReport, CusumScan};
    pub use crate::defense::RandomizedRtoPolicy;
    pub use crate::dtw::{dtw_distance, pulse_template, DtwPulseDetector, DtwReport};
    pub use crate::rate::{DetectionReport, DetectorConfigError, RateDetector};
    pub use crate::roc::{auc, roc_curve, RocPoint};
    pub use crate::spectral::{power_at_period, SpectralDetector, SpectralReport};
    pub use crate::streaming::{
        alarm_stream_json, Alarm, StreamingCusum, StreamingRate, StreamingSpectral,
    };
}
