#include "softphy/calibration_table.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"
#include "sim/sweep.hh"
#include "softphy/softphy.hh"

namespace wilis {
namespace softphy {

namespace {

/** Packet-BER estimates are clamped into [kPberFloor, 1] before the
 *  log sums so a zero estimate cannot produce -inf. */
constexpr double kPberFloor = 1e-12;

double
clampPber(double pber)
{
    if (pber < kPberFloor)
        return kPberFloor;
    if (pber > 1.0)
        return 1.0;
    return pber;
}

} // namespace

double
TableCell::per() const
{
    if (!frames)
        return 1.0;
    return static_cast<double>(frames - ok) /
           static_cast<double>(frames);
}

double
TableCell::pberOkGeo() const
{
    if (ok)
        return std::exp(sumLogPberOk / static_cast<double>(ok));
    // Every calibrated frame failed here: the best available
    // conditional statistic is the errored-frame mean.
    if (frames)
        return pberBadGeo();
    return kPberFloor;
}

double
TableCell::pberBadGeo() const
{
    const std::uint64_t bad = frames - ok;
    if (bad)
        return std::exp(sumLogPberBad / static_cast<double>(bad));
    if (frames)
        return pberOkGeo();
    return 0.5;
}

void
TableCell::merge(const TableCell &other)
{
    frames += other.frames;
    ok += other.ok;
    sumPber += other.sumPber;
    sumLogPberOk += other.sumLogPberOk;
    sumLogPberBad += other.sumLogPberBad;
}

CalibrationTable
CalibrationTable::build(const BuildSpec &spec)
{
    wilis_assert(spec.numBins >= 1, "calibration needs >= 1 SNR bin");
    wilis_assert(spec.snrStepDb > 0.0,
                 "calibration needs a positive SNR step");
    wilis_assert(spec.packetsPerCell >= 1,
                 "calibration needs >= 1 packet per cell");

    CalibrationTable t;
    t.channel_ = spec.channel;
    t.decoder_ = spec.rx.decoder;
    t.soft_width_ = spec.rx.demapper.softWidth;
    t.payload_bits_ = spec.payloadBits;
    t.packets_ = spec.packetsPerCell;
    t.seed_ = spec.seed;
    t.snr_lo_ = spec.snrLoDb;
    t.snr_step_ = spec.snrStepDb;
    t.num_bins_ = spec.numBins;
    t.cells.assign(static_cast<size_t>(phy::kNumRates) *
                       static_cast<size_t>(spec.numBins),
                   TableCell());

    const BerEstimator estimator = analyticRateEstimator(spec.rx);
    const CounterRng root(spec.seed);

    // One cell per (rate, bin), rate-major like t.cells.
    std::vector<sim::ScenarioSpec> cells;
    for (int rate = 0; rate < phy::kNumRates; ++rate) {
        const CounterRng rate_rng =
            root.fork(static_cast<std::uint64_t>(rate));
        for (int bin = 0; bin < spec.numBins; ++bin) {
            sim::ScenarioSpec scen;
            scen.name = strprintf("cal/r%d/b%d", rate, bin);
            scen.rate = rate;
            scen.rx = spec.rx;
            scen.channel = spec.channel;
            scen.channelCfg.set(
                "snr_db",
                strprintf("%.17g", t.binCenterDb(bin)));
            // Channel seeds are clamped to 2^63 - 1: channel configs
            // once parsed seeds as a saturating signed long, and the
            // committed data/network_calibration.txt and the outputs
            // pinned on a table built here come from that sweep.
            // Lifting the clamp means regenerating both.
            const std::uint64_t channel_seed = std::min<std::uint64_t>(
                rate_rng.at(2 * static_cast<std::uint64_t>(bin)),
                std::numeric_limits<std::int64_t>::max());
            scen.channelCfg.set(
                "seed",
                strprintf("%llu",
                          static_cast<unsigned long long>(channel_seed)));
            scen.payloadBits = spec.payloadBits;
            scen.payloadSeed =
                rate_rng.at(2 * static_cast<std::uint64_t>(bin) + 1);
            cells.push_back(scen);
        }
    }

    // (frame ok, clamped PBER estimate) per packet, reduced in
    // packet order below.
    const std::vector<std::pair<bool, double>> frames = sim::sweepPackets(
        cells, spec.packetsPerCell, spec.threads,
        [&](size_t c, std::uint64_t, const sim::FrameResult &res) {
            const int rate = cells[c].rate;
            return std::make_pair(
                res.ok,
                clampPber(estimator.packetBerForRate(rate, res.rx.soft)));
        });
    for (size_t i = 0; i < frames.size(); ++i) {
        TableCell &cell = t.cells[i / spec.packetsPerCell];
        const auto [ok, pber] = frames[i];
        cell.frames += 1;
        cell.sumPber += pber;
        if (ok) {
            cell.ok += 1;
            cell.sumLogPberOk += std::log(pber);
        } else {
            cell.sumLogPberBad += std::log(pber);
        }
    }
    return t;
}

double
CalibrationTable::binCenterDb(int bin) const
{
    return snr_lo_ + (static_cast<double>(bin) + 0.5) * snr_step_;
}

int
CalibrationTable::binOf(double snr_db) const
{
    int bin = static_cast<int>(
        std::floor((snr_db - snr_lo_) / snr_step_));
    if (bin < 0)
        bin = 0;
    if (bin >= num_bins_)
        bin = num_bins_ - 1;
    return bin;
}

TableCell &
CalibrationTable::cellAt(int rate, int bin)
{
    return cells[static_cast<size_t>(rate) *
                     static_cast<size_t>(num_bins_) +
                 static_cast<size_t>(bin)];
}

const TableCell &
CalibrationTable::cell(phy::RateIndex rate, int bin) const
{
    wilis_assert(valid(), "calibration table is empty");
    wilis_assert(rate >= 0 && rate < phy::kNumRates,
                 "rate %d out of range", rate);
    wilis_assert(bin >= 0 && bin < num_bins_, "bin %d out of %d",
                 bin, num_bins_);
    return cells[static_cast<size_t>(rate) *
                     static_cast<size_t>(num_bins_) +
                 static_cast<size_t>(bin)];
}

void
CalibrationTable::lerpCoords(double snr_db, int *b0, int *b1,
                             double *frac) const
{
    // Continuous coordinate in units of bins, 0 at bin 0's center.
    double x = (snr_db - snr_lo_) / snr_step_ - 0.5;
    if (x <= 0.0) {
        *b0 = *b1 = 0;
        *frac = 0.0;
        return;
    }
    if (x >= static_cast<double>(num_bins_ - 1)) {
        *b0 = *b1 = num_bins_ - 1;
        *frac = 0.0;
        return;
    }
    *b0 = static_cast<int>(std::floor(x));
    *b1 = *b0 + 1;
    *frac = x - static_cast<double>(*b0);
}

double
CalibrationTable::per(phy::RateIndex rate, double snr_db) const
{
    wilis_assert(valid(), "calibration table is empty");
    wilis_assert(rate >= 0 && rate < phy::kNumRates,
                 "rate %d out of range", rate);
    int b0, b1;
    double frac;
    lerpCoords(snr_db, &b0, &b1, &frac);
    const double p0 = cell(rate, b0).per();
    const double p1 = cell(rate, b1).per();
    return p0 + (p1 - p0) * frac;
}

double
CalibrationTable::pberFeedback(phy::RateIndex rate, double snr_db,
                               bool ok) const
{
    wilis_assert(valid(), "calibration table is empty");
    wilis_assert(rate >= 0 && rate < phy::kNumRates,
                 "rate %d out of range", rate);
    int b0, b1;
    double frac;
    lerpCoords(snr_db, &b0, &b1, &frac);
    const TableCell &c0 = cell(rate, b0);
    const TableCell &c1 = cell(rate, b1);
    const double l0 =
        std::log(ok ? c0.pberOkGeo() : c0.pberBadGeo());
    const double l1 =
        std::log(ok ? c1.pberOkGeo() : c1.pberBadGeo());
    return std::exp(l0 + (l1 - l0) * frac);
}

FlatCalibration
CalibrationTable::flatten() const
{
    wilis_assert(valid(), "cannot flatten an empty table");
    FlatCalibration flat;
    flat.numBins = num_bins_;
    flat.snrLoDb = snr_lo_;
    flat.snrStepDb = snr_step_;
    flat.per.reserve(cells.size());
    flat.logPberOk.reserve(cells.size());
    flat.logPberBad.reserve(cells.size());
    for (const TableCell &c : cells) {
        flat.per.push_back(c.per());
        flat.logPberOk.push_back(std::log(c.pberOkGeo()));
        flat.logPberBad.push_back(std::log(c.pberBadGeo()));
    }
    return flat;
}

std::string
CalibrationTable::serialize() const
{
    wilis_assert(valid(), "cannot serialize an empty table");
    std::ostringstream out;
    out << "# WiLIS network calibration table\n";
    out << "version 1\n";
    out << "channel " << channel_ << "\n";
    out << "decoder " << decoder_ << "\n";
    out << "soft_width " << soft_width_ << "\n";
    out << "payload_bits " << payload_bits_ << "\n";
    out << "packets_per_cell " << packets_ << "\n";
    out << "seed " << seed_ << "\n";
    out << strprintf("snr_lo_db %.17g\n", snr_lo_);
    out << strprintf("snr_step_db %.17g\n", snr_step_);
    out << "num_bins " << num_bins_ << "\n";
    out << "num_rates " << phy::kNumRates << "\n";
    for (int rate = 0; rate < phy::kNumRates; ++rate) {
        for (int bin = 0; bin < num_bins_; ++bin) {
            const TableCell &c = cell(rate, bin);
            out << strprintf(
                "cell %d %d %llu %llu %.17g %.17g %.17g\n", rate,
                bin, static_cast<unsigned long long>(c.frames),
                static_cast<unsigned long long>(c.ok), c.sumPber,
                c.sumLogPberOk, c.sumLogPberBad);
        }
    }
    return out.str();
}

CalibrationTable
CalibrationTable::parse(const std::string &text, const std::string &what)
{
    const char *src = what.c_str(); // names the table in every fatal
    CalibrationTable t;
    int num_rates = 0;
    int version = 0;
    std::uint64_t cells_seen = 0;
    std::vector<bool> seen;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "version") {
            ls >> version;
            wilis_fatal_if(version != 1,
                           "%s:%d: unsupported calibration table "
                           "version %d",
                           src, line_no, version);
        } else if (key == "channel") {
            ls >> t.channel_;
        } else if (key == "decoder") {
            ls >> t.decoder_;
        } else if (key == "soft_width") {
            ls >> t.soft_width_;
        } else if (key == "payload_bits") {
            ls >> t.payload_bits_;
        } else if (key == "packets_per_cell") {
            ls >> t.packets_;
        } else if (key == "seed") {
            ls >> t.seed_;
        } else if (key == "snr_lo_db") {
            ls >> t.snr_lo_;
        } else if (key == "snr_step_db") {
            ls >> t.snr_step_;
            wilis_fatal_if(!(t.snr_step_ > 0.0),
                           "%s:%d: calibration table needs a positive "
                           "SNR step, got %g",
                           src, line_no, t.snr_step_);
        } else if (key == "num_bins") {
            // The cells vector is sized from this value at the
            // first 'cell' line; changing it afterwards would let
            // later bounds checks pass against a stale allocation.
            wilis_fatal_if(!t.cells.empty(),
                           "%s:%d: calibration table geometry after "
                           "cells",
                           src, line_no);
            ls >> t.num_bins_;
        } else if (key == "num_rates") {
            wilis_fatal_if(!t.cells.empty(),
                           "%s:%d: calibration table geometry after "
                           "cells",
                           src, line_no);
            ls >> num_rates;
        } else if (key == "cell") {
            wilis_fatal_if(t.num_bins_ <= 0 || num_rates <= 0,
                           "%s:%d: calibration cell before table "
                           "geometry",
                           src, line_no);
            if (t.cells.empty()) {
                t.cells.assign(static_cast<size_t>(phy::kNumRates) *
                                   static_cast<size_t>(t.num_bins_),
                               TableCell());
                seen.assign(t.cells.size(), false);
            }
            int rate = -1, bin = -1;
            unsigned long long frames = 0, ok = 0;
            TableCell c;
            ls >> rate >> bin >> frames >> ok >> c.sumPber >>
                c.sumLogPberOk >> c.sumLogPberBad;
            wilis_fatal_if(ls.fail(),
                           "%s:%d: malformed calibration cell line '%s'",
                           src, line_no, line.c_str());
            wilis_fatal_if(rate < 0 || rate >= phy::kNumRates ||
                               bin < 0 || bin >= t.num_bins_,
                           "%s:%d: calibration cell (%d, %d) out of "
                           "range",
                           src, line_no, rate, bin);
            c.frames = frames;
            c.ok = ok;
            wilis_fatal_if(c.ok > c.frames,
                           "%s:%d: calibration cell (%d, %d): ok > "
                           "frames",
                           src, line_no, rate, bin);
            // Duplicates must not count toward completeness, or a
            // repeated line could mask a missing (empty, PER ~ 1)
            // cell.
            const size_t idx =
                static_cast<size_t>(rate) *
                    static_cast<size_t>(t.num_bins_) +
                static_cast<size_t>(bin);
            wilis_fatal_if(seen[idx],
                           "%s:%d: duplicate calibration cell (%d, %d)",
                           src, line_no, rate, bin);
            seen[idx] = true;
            t.cellAt(rate, bin) = c;
            ++cells_seen;
        } else {
            wilis_fatal("%s:%d: unknown calibration table key '%s'",
                        src, line_no, key.c_str());
        }
    }
    wilis_fatal_if(version != 1, "%s: missing calibration table version",
                   src);
    wilis_fatal_if(t.num_bins_ < 1 || !(t.snr_step_ > 0.0),
                   "%s: calibration table has no usable SNR geometry",
                   src);
    wilis_fatal_if(num_rates != phy::kNumRates,
                   "%s: calibration table covers %d rates, need %d",
                   src, num_rates, phy::kNumRates);
    const std::uint64_t cells_total =
        static_cast<std::uint64_t>(phy::kNumRates) *
        static_cast<std::uint64_t>(t.num_bins_);
    wilis_fatal_if(cells_seen != cells_total,
                   "%s: calibration table is missing cells (%llu of "
                   "%llu)",
                   src, static_cast<unsigned long long>(cells_seen),
                   static_cast<unsigned long long>(cells_total));
    return t;
}

void
CalibrationTable::save(const std::string &path) const
{
    std::ofstream out(path);
    wilis_fatal_if(!out.good(), "cannot write calibration table to %s",
                   path.c_str());
    out << serialize();
    out.close();
    wilis_fatal_if(!out.good(), "short write saving calibration table %s",
                   path.c_str());
}

CalibrationTable
CalibrationTable::load(const std::string &path)
{
    std::ifstream in(path);
    wilis_fatal_if(!in.good(), "cannot read calibration table %s",
                   path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str(), path);
}

} // namespace softphy
} // namespace wilis
