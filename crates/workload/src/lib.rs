//! # elastisched-workload
//!
//! Workload modelling for parallel job scheduling:
//!
//! * from-scratch random-variate samplers ([`dist`]): Gamma
//!   (Marsaglia–Tsang), hyper-Gamma, exponential, integer uniform;
//! * the Lublin–Feitelson analytical models ([`lublin`]) for job runtimes
//!   (size-correlated bimodal hyper-Gamma in log₂ space) and arrivals
//!   (Gamma inter-arrivals with daily rush-hour modulation);
//! * the paper's two-stage uniform job-size model ([`sizes`]);
//! * the Standard Workload Format ([`swf`]) and the paper's Cloud
//!   Workload Format extension with Elastic Control Commands ([`cwf`]);
//! * the CWF workload generator ([`gen`]) with the paper's §IV-D knobs:
//!   `P_S`, `P_D`, `P_E`, `P_R`, `β_arr`;
//! * offered-load computation and load rescaling ([`load`], [`set`]);
//! * streaming job sources ([`source`]): lazy SWF/CWF readers, the
//!   generator as an unbounded stream, and the arrival-scaling adapter,
//!   all feeding `Engine::run_streaming_folded` in bounded memory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod charac;
pub mod cwf;
pub mod dist;
pub mod gen;
pub mod load;
pub mod lublin;
pub mod set;
pub mod sizes;
pub mod source;
pub mod swf;

pub use charac::{characterization_to_text, characterize, Characterization, Histogram};
pub use cwf::{CwfFile, CwfRecord, RequestType};
pub use gen::{generate, GeneratorConfig};
pub use lublin::{ArrivalModel, ArrivalParams, RuntimeModel, RuntimeParams};
pub use set::Workload;
pub use sizes::SizeModel;
pub use source::{CwfSource, LublinSource, ScaleArrivals, SwfSource, TakeJobs};
pub use swf::{ParseError, SwfFile, SwfHeader, SwfRecord};
