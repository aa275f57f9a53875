//! The §5.4 technology demonstrator: a distributed MPEG transcoding farm.
//!
//! Synthetic video frames are distributed by CORBA requests to encoder
//! worker objects; results stream back. Run both data paths and compare.
//!
//! ```text
//! cargo run --release --example video_transcoder [-- --hdtv]
//! ```

use zcorba::mpeg::{EncoderConfig, FarmParams, PayloadMode, TranscodeFarm, VideoFormat};

fn main() {
    let hdtv = std::env::args().any(|a| a == "--hdtv");
    let (format, frames) = if hdtv {
        (VideoFormat::HDTV_1080, 12)
    } else {
        (VideoFormat::new(320, 192), 36)
    };

    println!(
        "transcoding {frames} frames of {}×{} ({:.2} MB raw each) on a 4-worker farm\n",
        format.width,
        format.height,
        format.frame_bytes() as f64 / 1e6
    );

    for payload in [PayloadMode::Standard, PayloadMode::ZeroCopy] {
        let params = FarmParams {
            workers: 4,
            frames,
            format,
            payload,
            encoder: EncoderConfig { quality: 8 },
            verify: true, // decode every bitstream and check PSNR
            passthrough: false,
            seed: 2003,
        };
        let out = TranscodeFarm::run(&params);
        println!(
            "{:?} path: {:.2} fps ({} frames in {:.2} s), raw input {:.0} Mbit/s, compressed to {:.1}% of input — {}",
            payload,
            out.fps,
            out.frames,
            out.wall.as_secs_f64(),
            out.input_mbit_s,
            100.0 * out.bytes_out as f64 / out.bytes_in as f64,
            if out.is_real_time(25.0) {
                "real-time at 25 fps"
            } else {
                "below real-time on this run"
            }
        );
    }

    println!(
        "\n(throughput on this host is dominated by the software DCT; the paper's\n\
         communication-side ×10 is reproduced by\n\
         `cargo run --release -p zc-bench --bin zc-bench -- transcoder`)"
    );
}
