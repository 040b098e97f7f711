//! Writes `models/markov/l_comment_markovSamples.bin`, the comment Markov
//! model that `models/tpch.xml` and `models/ssb.xml` reference, from
//! `corpus::tpch_comment_model`. The XML files are the models themselves
//! and are edited by hand. Run from the repository root:
//! `cargo run -p workloads --bin dump-models`.

fn main() {
    let markov = workloads::corpus::tpch_comment_model();
    std::fs::create_dir_all("models/markov").unwrap();
    std::fs::write(
        "models/markov/l_comment_markovSamples.bin",
        markov.to_bytes(),
    )
    .unwrap();
    println!("wrote models/markov/l_comment_markovSamples.bin");
}
