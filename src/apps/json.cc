#include "apps/json.hh"

#include "apps/entry.hh"

#include <charconv>
#include <string_view>
#include <vector>

#include "rt/dms_ctl.hh"
#include "sim/rng.hh"

namespace dpu::apps {

namespace jsondetail {

/** Newline-delimited lineitem-shaped records (Section 5.5). */
Records
makeRecords(const JsonConfig &cfg)
{
    static constexpr std::string_view words[] = {
        "quick",   "silent",   "ironic",   "final",       "pending",
        "express", "deposits", "accounts", "theodolites", "platelets"};
    sim::Rng rng{cfg.seed};
    Records out;
    std::string &text = out.text;
    text.reserve(std::size_t(cfg.nRecords) * 180);
    const auto number = [&text](std::uint64_t v) {
        char buf[20];
        text.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    };
    const auto twoDigits = [&text](std::uint64_t v) {
        text += char('0' + v / 10);
        text += char('0' + v % 10);
    };
    for (std::uint32_t r = 0; r < cfg.nRecords; ++r) {
        // The draw order is part of the input: cents before
        // dollars, and the ship date's day, month, then year.
        const std::uint64_t orderkey = r + 1;
        const std::uint64_t partkey = rng.below(200000) + 1;
        const std::uint64_t quantity = rng.below(50) + 1;
        const std::uint64_t cents = rng.below(100);
        const std::uint64_t dollars = rng.below(90000) + 1000;
        const std::uint64_t day = rng.below(28) + 1;
        const std::uint64_t month = rng.below(12) + 1;
        const std::uint64_t year = 92 + rng.below(7);

        text += "{\"orderkey\":";
        number(orderkey);
        text += ",\"partkey\":";
        number(partkey);
        text += ",\"quantity\":";
        number(quantity);
        text += ",\"price\":";
        number(dollars);
        text += '.';
        twoDigits(cents);
        text += ",\"shipdate\":\"19";
        twoDigits(year);
        text += '-';
        twoDigits(month);
        text += '-';
        twoDigits(day);
        text += "\",\"comment\":\"";
        unsigned n = 2 + unsigned(rng.below(4));
        for (unsigned w = 0; w < n; ++w) {
            if (w)
                text += ' ';
            text += words[rng.below(10)];
        }
        text += "\"}\n";
        out.tally.intSum += orderkey + partkey + quantity + dollars;
    }
    out.tally.records = cfg.nRecords;
    out.tally.fields = 6 * std::uint64_t(cfg.nRecords);
    return out;
}

/**
 * The table-driven FSM both implementations share functionally: a
 * flat scan counting records (depth-0 newlines), fields (colons at
 * depth 1 outside strings), and summing integer-part values. Also
 * reports the number of "action" events (fields) for the DPU's
 * cost model.
 */
JsonTally
parseSpan(const char *p, std::uint64_t len)
{
    JsonTally t;
    int depth = 0;
    bool in_str = false;
    bool esc = false;
    bool in_int = false;
    std::uint64_t cur = 0;
    for (std::uint64_t i = 0; i < len; ++i) {
        char ch = p[i];
        if (in_str) {
            if (esc)
                esc = false;
            else if (ch == '\\')
                esc = true;
            else if (ch == '"')
                in_str = false;
            continue;
        }
        if (in_int) {
            if (ch >= '0' && ch <= '9') {
                cur = cur * 10 + std::uint64_t(ch - '0');
                continue;
            }
            t.intSum += cur;
            in_int = false;
        }
        switch (ch) {
          case '"': in_str = true; break;
          case '{': ++depth; break;
          case '}': --depth; break;
          case ':':
            if (depth == 1) {
                ++t.fields;
                if (i + 1 < len && p[i + 1] >= '0' &&
                    p[i + 1] <= '9') {
                    in_int = true;
                    cur = 0;
                }
            }
            break;
          case '\n':
            if (depth == 0)
                ++t.records;
            break;
          default:
            break;
        }
    }
    return t;
}

} // namespace jsondetail

using jsondetail::makeRecords;
using jsondetail::parseSpan;

namespace {

constexpr std::uint32_t padBytes = 1024; // Section 5.5's padding

} // namespace

JsonResult
dpuJson(const soc::SocParams &params, const JsonConfig &cfg)
{
    const std::string text = makeRecords(cfg).text;
    const std::uint64_t bytes = text.size();
    soc::Soc s(params);
    s.memory().store().write(0, text.data(), bytes);

    const std::uint64_t chunk =
        alignUp((bytes + cfg.nCores - 1) / cfg.nCores, 4);

    std::vector<JsonTally> tallies(cfg.nCores);
    for (unsigned id = 0; id < cfg.nCores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dmsFor(id));
            // Cores other than the first also read the byte just
            // before their chunk: a record is theirs to skip only
            // when it STRADDLES the boundary, i.e. when that byte
            // is not a newline.
            std::uint64_t begin = std::uint64_t(id) * chunk;
            if (begin >= bytes)
                return;
            unsigned lead = id > 0 ? 1 : 0;
            begin -= lead;
            // Read the chunk plus padding; the extra bytes cover a
            // record straddling the boundary (Section 5.5).
            std::uint64_t want =
                std::min<std::uint64_t>(chunk + lead + padBytes,
                                        bytes - begin);

            // Triple-buffered 8 KB tiles, exactly as the paper.
            std::vector<char> local;
            local.reserve(want);
            rt::StreamReader in(ctl, begin, want, 0, 8192, 3, 0, 0);
            in.forEach([&](std::uint32_t off, std::uint32_t blen) {
                std::size_t at = local.size();
                local.resize(at + blen);
                c.dmem().read(off, local.data() + at, blen);
            });

            // Skip into the first whole record; parse through the
            // chunk end until the straddling record closes.
            std::uint64_t from = 0;
            if (id > 0) {
                while (from < local.size() && local[from] != '\n')
                    ++from;
                ++from; // one past the newline
            }
            std::uint64_t to = std::min<std::uint64_t>(
                chunk + lead, local.size());
            while (to < local.size() && local[to - 1] != '\n')
                ++to;
            if (from >= to)
                return;

            std::uint64_t span = to - from;
            JsonTally t = parseSpan(local.data() + from, span);
            tallies[id] = t;

            // Cost model: the jump-table parser runs the dispatch
            // loop at ~6 cycles/byte plus ~30 cycles of value
            // materialization per field. The branchy SAJSON port
            // pays 13.2 cycles/byte in the pipeline (Section 5.5)
            // plus front-end stalls — its "large number of
            // instructions" thrashes the 8 KB I-cache — which is
            // what pins the whole chip at ~645 MB/s.
            if (cfg.branchyParser)
                c.cycles(sim::Cycles(span * 33));
            else
                c.cycles(sim::Cycles(span * 6));
            c.cycles(t.fields * 30);
        });
    }
    sim::Tick t = s.run();
    sim_assert(s.allFinished(), "JSON kernels deadlocked");

    JsonResult r;
    r.seconds = double(t) * 1e-12;
    r.bytes = bytes;
    for (const JsonTally &pt : tallies) {
        r.tally.records += pt.records;
        r.tally.fields += pt.fields;
        r.tally.intSum += pt.intSum;
    }
    return r;
}

JsonResult
xeonJson(const JsonConfig &cfg)
{
    const std::string text = makeRecords(cfg).text;
    JsonResult r;
    r.bytes = text.size();
    r.tally = parseSpan(text.data(), text.size());

    // Anchored on the paper's measurement: SAJSON parses this record
    // mix at 5.2 GB/s on the 36-core box at IPC 3.05 (Section 5.5),
    // i.e. ~48 uops per byte.
    xeon::XeonModel m;
    m.scalarOps(double(r.bytes) * 48.0);
    m.streamBytes(double(r.bytes));
    m.endPhase();
    r.seconds = m.seconds();
    return r;
}

AppResult
jsonApp(const JsonConfig &cfg)
{
    JsonResult d = dpuJson(soc::dpu40nm(), cfg);
    JsonResult x = xeonJson(cfg);
    AppResult r;
    r.name = cfg.branchyParser ? "JSON (branchy)" : "JSON parsing";
    r.dpuSeconds = d.seconds;
    r.xeonSeconds = x.seconds;
    r.workUnits = double(d.bytes);
    r.unitName = "bytes";
    r.matched = d.tally == x.tally;
    return r;
}

} // namespace dpu::apps
