//! Offline shim for `serde_derive`: the derives expand to nothing. Nothing
//! in this workspace serializes through serde — the repo benchmark writes
//! its own line-oriented text and JSON formats — so the derive
//! positions on model types are kept compiling without generating code.

use proc_macro::TokenStream;

/// No-op stand-in for `serde_derive::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op stand-in for `serde_derive::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
