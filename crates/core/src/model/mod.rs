//! The SpiderNet service model (paper §2).

pub mod component;
pub mod function_graph;
pub mod request;
pub mod service_graph;

pub use component::{FunctionCatalog, Registry, ServiceComponent};
pub use function_graph::FunctionGraph;
pub use request::CompositionRequest;
pub use service_graph::{GraphEval, ServiceGraph};
