#include "qif/workloads/program_io.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "qif/sim/hash.hpp"
#include "qif/trace/text_cursor.hpp"

namespace qif::workloads {
namespace {

using trace::fail_cell;
using trace::FieldCursor;

// Sanity caps: a hostile `ranks`/`slots` count must not turn into a giant
// allocation before the (mandatory) checksum gets a chance to reject the
// file.
constexpr int kMaxRanks = 1'000'000;
constexpr int kMaxSlots = 1'000'000;

/// FNV-1a over every line, newline included, as written or read.
struct LineHash {
  std::uint64_t value = sim::kFnvOffsetBasis;
  void add_line(std::string_view line) {
    value = sim::fnv1a(std::string_view("\n"), sim::fnv1a(line, value));
  }
};

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool has_whitespace(const std::string& s) {
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return true;
  }
  return s.empty();
}

const char* op_keyword(OpSpec::Kind kind) {
  switch (kind) {
    case OpSpec::Kind::kCreate: return "create";
    case OpSpec::Kind::kOpen: return "open";
    case OpSpec::Kind::kRead: return "read";
    case OpSpec::Kind::kWrite: return "write";
    case OpSpec::Kind::kStat: return "stat";
    case OpSpec::Kind::kClose: return "close";
    case OpSpec::Kind::kUnlink: return "unlink";
    case OpSpec::Kind::kMkdir: return "mkdir";
    case OpSpec::Kind::kThink: return "think";
  }
  return "?";
}

[[noreturn]] void unwritable(const std::string& what) {
  throw std::invalid_argument("qwp: cannot serialize " + what);
}

std::string op_line(const OpSpec& op, int max_slot) {
  const auto need_path = [&] {
    if (has_whitespace(op.path)) {
      unwritable(std::string(op_keyword(op.kind)) + " op with empty or whitespace path '" +
                 op.path + "'");
    }
    return op.path;
  };
  const auto need_slot = [&] {
    if (op.slot < 0 || op.slot > max_slot) {
      unwritable(std::string(op_keyword(op.kind)) + " op with slot " +
                 std::to_string(op.slot) + " outside [0, " + std::to_string(max_slot) + "]");
    }
    return std::to_string(op.slot);
  };
  switch (op.kind) {
    case OpSpec::Kind::kCreate:
      if (op.stripes < 0 || op.stripe_hint < -1) {
        unwritable("create op with stripes " + std::to_string(op.stripes) + ", hint " +
                   std::to_string(op.stripe_hint));
      }
      return "create " + need_path() + ' ' + need_slot() + ' ' + std::to_string(op.stripes) +
             ' ' + std::to_string(op.stripe_hint);
    case OpSpec::Kind::kOpen:
      return "open " + need_path() + ' ' + need_slot();
    case OpSpec::Kind::kRead:
    case OpSpec::Kind::kWrite:
      if (op.offset < 0 || op.len < 0) {
        unwritable(std::string(op_keyword(op.kind)) + " op with negative offset/len");
      }
      return std::string(op_keyword(op.kind)) + ' ' + need_slot() + ' ' +
             std::to_string(op.offset) + ' ' + std::to_string(op.len);
    case OpSpec::Kind::kStat:
    case OpSpec::Kind::kUnlink:
    case OpSpec::Kind::kMkdir:
      return std::string(op_keyword(op.kind)) + ' ' + need_path();
    case OpSpec::Kind::kClose:
      return "close " + need_slot();
    case OpSpec::Kind::kThink:
      if (op.think < 0) unwritable("think op with negative duration");
      return "think " + std::to_string(op.think);
  }
  unwritable("op of unknown kind");
}

[[noreturn]] void fail_line(const std::string& what, std::int64_t line_no) {
  throw std::runtime_error("qwp: " + what + " at line " + std::to_string(line_no));
}

OpSpec parse_op(std::string_view keyword, FieldCursor& f, int max_slot) {
  OpSpec op;
  const auto next_path = [&] { return std::string(f.next_required("qwp path")); };
  const auto next_slot = [&] {
    const int s = f.next_int<int>("qwp slot");
    if (s < 0 || s > max_slot) {
      fail_line("slot " + std::to_string(s) + " out of range [0, " +
                    std::to_string(max_slot) + "]",
                f.line_no);
    }
    return s;
  };
  if (keyword == "create") {
    op.kind = OpSpec::Kind::kCreate;
    op.path = next_path();
    op.slot = next_slot();
    op.stripes = f.next_int<int>("qwp stripes");
    op.stripe_hint = f.next_int<int>("qwp stripe_hint");
    if (op.stripes < 0) fail_line("negative stripe count", f.line_no);
    if (op.stripe_hint < -1) fail_line("bad stripe hint (must be >= -1)", f.line_no);
  } else if (keyword == "open") {
    op.kind = OpSpec::Kind::kOpen;
    op.path = next_path();
    op.slot = next_slot();
  } else if (keyword == "read" || keyword == "write") {
    op.kind = keyword == "read" ? OpSpec::Kind::kRead : OpSpec::Kind::kWrite;
    op.slot = next_slot();
    op.offset = f.next_int<std::int64_t>("qwp offset");
    op.len = f.next_int<std::int64_t>("qwp len");
    if (op.offset < 0 || op.len < 0) fail_line("negative offset/len", f.line_no);
  } else if (keyword == "stat" || keyword == "unlink" || keyword == "mkdir") {
    op.kind = keyword == "stat" ? OpSpec::Kind::kStat
              : keyword == "unlink" ? OpSpec::Kind::kUnlink
                                    : OpSpec::Kind::kMkdir;
    op.path = next_path();
  } else if (keyword == "close") {
    op.kind = OpSpec::Kind::kClose;
    op.slot = next_slot();
  } else if (keyword == "think") {
    op.kind = OpSpec::Kind::kThink;
    op.think = f.next_int<sim::SimDuration>("qwp think_ns");
    if (op.think < 0) fail_line("negative think_ns", f.line_no);
  } else {
    throw std::runtime_error("qwp: unknown op '" + std::string(keyword) + "' at line " +
                             std::to_string(f.line_no) + ", column 1");
  }
  f.expect_exhausted("qwp op");
  return op;
}

}  // namespace

void write_qwp(std::ostream& os, const WorkloadProgram& program) {
  if (program.ranks.empty()) unwritable("a program with no ranks");
  if (!program.workload.empty() && has_whitespace(program.workload)) {
    unwritable("workload name with whitespace: '" + program.workload + "'");
  }
  LineHash hash;
  const auto emit = [&](const std::string& text) {
    os << text << '\n';
    hash.add_line(text);
  };
  emit("# qwp qif " + std::to_string(kQwpVersion));
  if (!program.workload.empty()) emit("workload " + program.workload);
  emit("ranks " + std::to_string(program.ranks.size()));
  for (std::size_t r = 0; r < program.ranks.size(); ++r) {
    const RankProgram& rank = program.ranks[r];
    if (rank.max_slot < 0 || rank.max_slot > kMaxSlots) {
      unwritable("rank " + std::to_string(r) + " with max_slot " +
                 std::to_string(rank.max_slot));
    }
    emit("rank " + std::to_string(r));
    emit("slots " + std::to_string(rank.max_slot));
    emit("prologue");
    for (const OpSpec& op : rank.prologue) emit(op_line(op, rank.max_slot));
    emit("body");
    for (const OpSpec& op : rank.body) emit(op_line(op, rank.max_slot));
  }
  os << "checksum " << hex16(hash.value) << '\n';
}

WorkloadProgram read_qwp(std::istream& is) {
  std::string line;
  std::int64_t line_no = 0;
  LineHash hash;

  // Line 1: the version header, matched exactly.
  if (!std::getline(is, line)) {
    throw std::runtime_error("qwp: missing '# qwp qif <version>' header at line 1");
  }
  ++line_no;
  constexpr std::string_view kHeader = "# qwp qif ";
  if (std::string_view(line).substr(0, kHeader.size()) != kHeader) {
    throw std::runtime_error("qwp: missing '# qwp qif <version>' header at line 1");
  }
  const int version = trace::parse_int_cell<int>(std::string_view(line).substr(kHeader.size()),
                                                 "qwp version", 1, 4);
  if (version != kQwpVersion) {
    throw std::runtime_error("qwp: unsupported version " + std::to_string(version) +
                             " at line 1 (reader supports " + std::to_string(kQwpVersion) +
                             ")");
  }
  hash.add_line(line);

  enum class St { kPreRanks, kAwaitRank, kAwaitSlots, kAwaitPrologue, kPrologue, kBody };
  const auto expectation = [](St st) -> const char* {
    switch (st) {
      case St::kPreRanks: return "'workload NAME' or 'ranks N'";
      case St::kAwaitRank: return "'rank K'";
      case St::kAwaitSlots: return "'slots N'";
      case St::kAwaitPrologue: return "'prologue'";
      case St::kPrologue: return "an op line or 'body'";
      case St::kBody: return "an op line, 'rank K', or 'checksum'";
    }
    return "?";
  };

  WorkloadProgram out;
  St st = St::kPreRanks;
  int declared_ranks = -1;
  int rank_idx = 0;
  bool have_name = false;
  RankProgram cur;
  bool sealed = false;

  while (std::getline(is, line)) {
    ++line_no;
    FieldCursor f{line, line_no};
    const std::string_view tok = f.next();
    if (tok == "checksum") {
      // The checksum line covers every byte before it, never itself.
      if (st == St::kBody) {
        out.ranks.push_back(std::move(cur));
        ++rank_idx;
      } else if (st != St::kAwaitRank || rank_idx != declared_ranks) {
        fail_line(std::string("expected ") + expectation(st) + ", got 'checksum'", line_no);
      }
      if (declared_ranks < 0 || rank_idx != declared_ranks) {
        fail_line("program declares " + std::to_string(declared_ranks < 0 ? 0 : declared_ranks) +
                      " ranks but contains " + std::to_string(rank_idx),
                  line_no);
      }
      const std::string_view sum = f.next_required("qwp checksum");
      f.expect_exhausted("qwp checksum line");
      if (sum != "-") {
        bool hexy = sum.size() == 16;
        for (const char c : sum) {
          hexy = hexy && ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
        }
        if (!hexy) fail_cell("qwp checksum", sum, line_no, 2);
        std::uint64_t recorded = 0;
        std::from_chars(sum.data(), sum.data() + sum.size(), recorded, 16);
        if (recorded != hash.value) {
          throw std::runtime_error("qwp: checksum mismatch: file says " +
                                   std::string(sum) + ", content hashes to " +
                                   hex16(hash.value) +
                                   " (use 'checksum -' after hand-editing)");
        }
      }
      sealed = true;
      break;
    }
    hash.add_line(line);
    if (tok.empty() || tok[0] == '#') continue;  // blank/comment (checksummed)

    switch (st) {
      case St::kPreRanks:
        if (tok == "workload") {
          if (have_name) fail_line("duplicate 'workload' directive", line_no);
          out.workload = std::string(f.next_required("qwp workload name"));
          f.expect_exhausted("qwp workload directive");
          have_name = true;
        } else if (tok == "ranks") {
          declared_ranks = f.next_int<int>("qwp rank count");
          f.expect_exhausted("qwp ranks directive");
          if (declared_ranks < 1 || declared_ranks > kMaxRanks) {
            fail_line("bad rank count " + std::to_string(declared_ranks), line_no);
          }
          st = St::kAwaitRank;
        } else {
          fail_line(std::string("expected ") + expectation(st) + ", got '" +
                        std::string(tok) + "'",
                    line_no);
        }
        break;
      case St::kAwaitRank:
      case St::kBody:
        if (tok == "rank") {
          if (st == St::kBody) {
            out.ranks.push_back(std::move(cur));
            ++rank_idx;
          }
          const int k = f.next_int<int>("qwp rank index");
          f.expect_exhausted("qwp rank directive");
          if (k != rank_idx) {
            fail_line("rank sections out of order: got rank " + std::to_string(k) +
                          ", expected rank " + std::to_string(rank_idx),
                      line_no);
          }
          if (rank_idx >= declared_ranks) {
            fail_line("program declares " + std::to_string(declared_ranks) +
                          " ranks but contains more",
                      line_no);
          }
          cur = RankProgram{};
          st = St::kAwaitSlots;
        } else if (st == St::kBody) {
          cur.body.push_back(parse_op(tok, f, cur.max_slot));
        } else {
          fail_line(std::string("expected ") + expectation(st) + ", got '" +
                        std::string(tok) + "'",
                    line_no);
        }
        break;
      case St::kAwaitSlots:
        if (tok != "slots") {
          fail_line(std::string("expected ") + expectation(st) + ", got '" +
                        std::string(tok) + "'",
                    line_no);
        }
        cur.max_slot = f.next_int<int>("qwp slot count");
        f.expect_exhausted("qwp slots directive");
        if (cur.max_slot < 0 || cur.max_slot > kMaxSlots) {
          fail_line("bad slot count " + std::to_string(cur.max_slot), line_no);
        }
        st = St::kAwaitPrologue;
        break;
      case St::kAwaitPrologue:
        if (tok != "prologue") {
          fail_line(std::string("expected ") + expectation(st) + ", got '" +
                        std::string(tok) + "'",
                    line_no);
        }
        f.expect_exhausted("qwp prologue directive");
        st = St::kPrologue;
        break;
      case St::kPrologue:
        if (tok == "body") {
          f.expect_exhausted("qwp body directive");
          st = St::kBody;
        } else {
          cur.prologue.push_back(parse_op(tok, f, cur.max_slot));
        }
        break;
    }
  }
  if (!sealed) {
    fail_line("truncated program (missing checksum)", line_no + 1);
  }
  if (std::getline(is, line)) {
    fail_line("trailing garbage after checksum", line_no + 1);
  }
  return out;
}

WorkloadProgram read_qwp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open program file " + path);
  try {
    return read_qwp(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace qif::workloads
