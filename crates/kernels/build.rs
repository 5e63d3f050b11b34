//! Writes every generated kernel and the registry module that `include!`s
//! them into `OUT_DIR`, from `dg_tables::codegen::MANIFEST`.

fn main() {
    let out = std::path::PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    for (name, src) in dg_tables::codegen::artifacts() {
        let path = out.join(&name);
        std::fs::write(&path, src)
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
    }
    // Rerun only when this script is rebuilt, i.e. when `dg-tables` changes.
    println!("cargo:rerun-if-changed=build.rs");
}
