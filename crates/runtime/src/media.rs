//! The six multimedia service components (paper §6.2), as real byte
//! transforms over synthetic video frames.
//!
//! "(1) embedding weather forecast ticker; (2) embedding stock ticker;
//! (3) up-scaling video frames; (4) down-scaling video frames;
//! (5) extracting sub-image; and (6) re-quantification of video frames."
//!
//! Frames are grayscale byte matrices; each transform manipulates the
//! pixel buffer for real, so a composed chain's output is checkable.
//! A [`Frame`] travels as a [`WirePixels`] payload and converts to and
//! from it by move, without copying pixels.

use spidernet_util::rng::splitmix64;
use spidernet_wire::WirePixels;

/// A synthetic video frame: `width × height` grayscale pixels.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Pixels per row.
    pub width: usize,
    /// Rows.
    pub height: usize,
    /// Row-major pixel bytes (`width * height` long).
    pub pixels: Vec<u8>,
    /// Sequence number within the stream.
    pub seq: u64,
}

impl Frame {
    /// A deterministic test-pattern frame (diagonal gradient).
    pub fn synthetic(width: usize, height: usize, seq: u64) -> Frame {
        assert!(width > 0 && height > 0);
        let mut px = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                px.push((((x + y) as u64).wrapping_add(seq) % 251) as u8);
            }
        }
        Frame { width, height, pixels: px, seq }
    }

    /// Pixel at (x, y).
    pub fn pixel(&self, x: usize, y: usize) -> u8 {
        self.pixels[y * self.width + x]
    }

    /// Byte size of the pixel payload.
    pub fn byte_len(&self) -> usize {
        self.pixels.len()
    }

    /// Content digest over dimensions, sequence number, and every pixel —
    /// the per-frame fingerprint carried in delivery acks so two
    /// transports can prove they delivered identical bytes.
    pub fn digest(&self) -> u64 {
        let mut h = splitmix64(0x4652414d45 ^ (self.width as u64) << 32 ^ self.height as u64);
        h = splitmix64(h ^ self.seq);
        for chunk in self.pixels.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = splitmix64(h ^ u64::from_le_bytes(word));
        }
        h
    }
}

impl From<WirePixels> for Frame {
    fn from(p: WirePixels) -> Frame {
        Frame { width: p.width as usize, height: p.height as usize, pixels: p.pixels, seq: p.seq }
    }
}

impl From<Frame> for WirePixels {
    fn from(f: Frame) -> WirePixels {
        WirePixels { width: f.width as u32, height: f.height as u32, seq: f.seq, pixels: f.pixels }
    }
}

/// The six media functions of the prototype deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MediaFunction {
    /// Embeds a weather-forecast ticker in the bottom rows.
    WeatherTicker,
    /// Embeds a stock ticker in the top rows.
    StockTicker,
    /// Doubles both dimensions (nearest-neighbour).
    UpScale,
    /// Halves both dimensions (2×2 box average).
    DownScale,
    /// Extracts the centered sub-image at half size.
    SubImage,
    /// Re-quantizes pixels to 16 levels.
    Requantize,
}

/// Ticker band height in rows.
const TICKER_ROWS: usize = 4;

impl MediaFunction {
    /// All six functions, in the paper's order.
    pub const ALL: [MediaFunction; 6] = [
        MediaFunction::WeatherTicker,
        MediaFunction::StockTicker,
        MediaFunction::UpScale,
        MediaFunction::DownScale,
        MediaFunction::SubImage,
        MediaFunction::Requantize,
    ];

    /// The function's registration name.
    pub fn name(&self) -> &'static str {
        match self {
            MediaFunction::WeatherTicker => "weather-ticker",
            MediaFunction::StockTicker => "stock-ticker",
            MediaFunction::UpScale => "up-scale",
            MediaFunction::DownScale => "down-scale",
            MediaFunction::SubImage => "sub-image",
            MediaFunction::Requantize => "requantize",
        }
    }

    /// Looks a function up by its registration name.
    pub fn by_name(name: &str) -> Option<MediaFunction> {
        MediaFunction::ALL.iter().copied().find(|f| f.name() == name)
    }

    /// Dense wire code (index into [`MediaFunction::ALL`]).
    pub fn code(&self) -> u8 {
        MediaFunction::ALL.iter().position(|f| f == self).expect("ALL is exhaustive") as u8
    }

    /// Looks a function up by its wire code.
    pub fn from_code(code: u8) -> Option<MediaFunction> {
        MediaFunction::ALL.get(code as usize).copied()
    }

    /// Output bandwidth relative to input (scaling transforms change the
    /// stream rate).
    pub fn bandwidth_factor(&self) -> f64 {
        match self {
            MediaFunction::UpScale => 4.0,
            MediaFunction::DownScale | MediaFunction::SubImage => 0.25,
            MediaFunction::Requantize => 0.5,
            _ => 1.0,
        }
    }

    /// Nominal per-frame processing delay, ms (used as Q_p when these
    /// components are registered).
    pub fn processing_ms(&self) -> f64 {
        match self {
            MediaFunction::WeatherTicker | MediaFunction::StockTicker => 4.0,
            MediaFunction::UpScale => 12.0,
            MediaFunction::DownScale => 8.0,
            MediaFunction::SubImage => 3.0,
            MediaFunction::Requantize => 6.0,
        }
    }

    /// Dimensions of the frame this transform makes of a `width × height`
    /// one.
    pub fn output_dims(&self, width: usize, height: usize) -> (usize, usize) {
        match self {
            MediaFunction::UpScale => (width * 2, height * 2),
            MediaFunction::DownScale | MediaFunction::SubImage => {
                ((width / 2).max(1), (height / 2).max(1))
            }
            _ => (width, height),
        }
    }

    /// Applies the transform.
    pub fn apply(&self, input: &Frame) -> Frame {
        match self {
            MediaFunction::WeatherTicker => embed_ticker(input, false),
            MediaFunction::StockTicker => embed_ticker(input, true),
            MediaFunction::UpScale => upscale(input),
            MediaFunction::DownScale => downscale(input),
            MediaFunction::SubImage => sub_image(input),
            MediaFunction::Requantize => requantize(input),
        }
    }
}

/// Writes a recognizable ticker band: alternating 0xFF/0x00 columns, at the
/// top (stock) or bottom (weather).
fn embed_ticker(f: &Frame, top: bool) -> Frame {
    let mut px = f.pixels.clone();
    let rows = TICKER_ROWS.min(f.height);
    let row_range = if top { 0..rows } else { f.height - rows..f.height };
    for y in row_range {
        for x in 0..f.width {
            px[y * f.width + x] = if x % 2 == 0 { 0xFF } else { 0x00 };
        }
    }
    Frame { width: f.width, height: f.height, pixels: px, seq: f.seq }
}

fn upscale(f: &Frame) -> Frame {
    let (w, h) = MediaFunction::UpScale.output_dims(f.width, f.height);
    let mut px = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            px.push(f.pixel(x / 2, y / 2));
        }
    }
    Frame { width: w, height: h, pixels: px, seq: f.seq }
}

fn downscale(f: &Frame) -> Frame {
    let (w, h) = MediaFunction::DownScale.output_dims(f.width, f.height);
    let mut px = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            // 2×2 box average, clamped at the original frame edge.
            let (x2, y2) = (x * 2, y * 2);
            let xr = (x2 + 1).min(f.width - 1);
            let yd = (y2 + 1).min(f.height - 1);
            let sum = f.pixel(x2, y2) as u32
                + f.pixel(xr, y2) as u32
                + f.pixel(x2, yd) as u32
                + f.pixel(xr, yd) as u32;
            px.push((sum / 4) as u8);
        }
    }
    Frame { width: w, height: h, pixels: px, seq: f.seq }
}

fn sub_image(f: &Frame) -> Frame {
    let (w, h) = MediaFunction::SubImage.output_dims(f.width, f.height);
    let (ox, oy) = ((f.width - w) / 2, (f.height - h) / 2);
    let mut px = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            px.push(f.pixel(x + ox, y + oy));
        }
    }
    Frame { width: w, height: h, pixels: px, seq: f.seq }
}

fn requantize(f: &Frame) -> Frame {
    let px: Vec<u8> = f.pixels.iter().map(|&p| p & 0xF0).collect();
    Frame { width: f.width, height: f.height, pixels: px, seq: f.seq }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame::synthetic(32, 24, 7)
    }

    #[test]
    fn synthetic_frame_shape() {
        let f = frame();
        assert_eq!(f.byte_len(), 32 * 24);
        assert_eq!(f.pixel(0, 0), 7);
        assert_eq!(f.pixel(3, 5), (3 + 5 + 7));
    }

    #[test]
    fn tickers_write_their_bands() {
        let f = frame();
        let weather = MediaFunction::WeatherTicker.apply(&f);
        // Bottom band striped, top untouched.
        assert_eq!(weather.pixel(0, 23), 0xFF);
        assert_eq!(weather.pixel(1, 23), 0x00);
        assert_eq!(weather.pixel(0, 0), f.pixel(0, 0));

        let stock = MediaFunction::StockTicker.apply(&f);
        assert_eq!(stock.pixel(0, 0), 0xFF);
        assert_eq!(stock.pixel(1, 0), 0x00);
        assert_eq!(stock.pixel(0, 23), f.pixel(0, 23));
    }

    #[test]
    fn upscale_doubles_and_replicates() {
        let f = frame();
        let up = MediaFunction::UpScale.apply(&f);
        assert_eq!((up.width, up.height), (64, 48));
        assert_eq!(up.pixel(10, 10), f.pixel(5, 5));
        assert_eq!(up.pixel(11, 10), f.pixel(5, 5));
    }

    #[test]
    fn downscale_halves_and_averages() {
        let f = frame();
        let down = MediaFunction::DownScale.apply(&f);
        assert_eq!((down.width, down.height), (16, 12));
        let expect = (f.pixel(0, 0) as u32
            + f.pixel(1, 0) as u32
            + f.pixel(0, 1) as u32
            + f.pixel(1, 1) as u32)
            / 4;
        assert_eq!(down.pixel(0, 0) as u32, expect);
    }

    #[test]
    fn up_then_down_is_identity_on_even_frames() {
        let f = frame();
        let round = MediaFunction::DownScale.apply(&MediaFunction::UpScale.apply(&f));
        assert_eq!(round, f);
    }

    #[test]
    fn sub_image_is_centered_crop() {
        let f = frame();
        let s = MediaFunction::SubImage.apply(&f);
        assert_eq!((s.width, s.height), (16, 12));
        assert_eq!(s.pixel(0, 0), f.pixel(8, 6));
    }

    #[test]
    fn requantize_clears_low_nibble() {
        let f = frame();
        let q = MediaFunction::Requantize.apply(&f);
        assert!(q.pixels.iter().all(|p| p & 0x0F == 0));
        assert_eq!(q.pixel(3, 5), f.pixel(3, 5) & 0xF0);
        // Idempotent.
        assert_eq!(MediaFunction::Requantize.apply(&q), q);
    }

    #[test]
    fn names_round_trip() {
        for f in MediaFunction::ALL {
            assert_eq!(MediaFunction::by_name(f.name()), Some(f));
        }
        assert_eq!(MediaFunction::by_name("nope"), None);
    }

    #[test]
    fn codes_round_trip() {
        for f in MediaFunction::ALL {
            assert_eq!(MediaFunction::from_code(f.code()), Some(f));
        }
        assert_eq!(MediaFunction::from_code(6), None);
    }

    #[test]
    fn frame_digest_is_content_sensitive() {
        let f = frame();
        assert_eq!(f.digest(), frame().digest());
        assert_ne!(f.digest(), Frame::synthetic(32, 24, 8).digest());
        assert_ne!(f.digest(), Frame::synthetic(24, 32, 7).digest());
        assert_ne!(f.digest(), MediaFunction::Requantize.apply(&f).digest());
    }

    #[test]
    fn bandwidth_factors_reflect_size_change() {
        let f = frame();
        for func in MediaFunction::ALL {
            let out = func.apply(&f);
            assert_eq!((out.width, out.height), func.output_dims(f.width, f.height));
            let actual = out.byte_len() as f64 / f.byte_len() as f64;
            match func {
                MediaFunction::Requantize => {
                    // Requantization halves *entropy*, not raw byte count.
                    assert_eq!(actual, 1.0);
                }
                _ => assert!(
                    (actual - func.bandwidth_factor()).abs() < 1e-9,
                    "{func:?}: {actual} vs {}",
                    func.bandwidth_factor()
                ),
            }
        }
    }

    #[test]
    fn tiny_frames_do_not_panic() {
        let f = Frame::synthetic(1, 1, 0);
        for func in MediaFunction::ALL {
            let out = func.apply(&f);
            assert!(out.width >= 1 && out.height >= 1);
        }
    }
}
