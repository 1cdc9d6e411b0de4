#include "circuit/serialize.hpp"

#include <sstream>

#include "common/assert.hpp"

namespace epg {
namespace {

std::string qubit_token(QubitId q) {
  std::string s(1, q.kind == QubitKind::photon ? 'p' : 'e');
  s += std::to_string(q.index);
  return s;
}

QubitId parse_qubit(const std::string& token) {
  EPG_REQUIRE(token.size() >= 2 && (token[0] == 'p' || token[0] == 'e'),
              "bad qubit token: " + token);
  const auto index =
      static_cast<std::uint32_t>(std::stoul(token.substr(1)));
  return token[0] == 'p' ? QubitId::photon(index) : QubitId::emitter(index);
}

char pauli_char(PauliOp op) {
  switch (op) {
    case PauliOp::X: return 'X';
    case PauliOp::Y: return 'Y';
    case PauliOp::Z: return 'Z';
    case PauliOp::I: break;
  }
  return 'I';
}

PauliOp parse_pauli(char c) {
  switch (c) {
    case 'X': return PauliOp::X;
    case 'Y': return PauliOp::Y;
    case 'Z': return PauliOp::Z;
    default: break;
  }
  throw std::invalid_argument(std::string("bad Pauli letter: ") + c);
}

Clifford1 parse_clifford(const std::string& gates) {
  Clifford1 c = Clifford1::identity();
  for (char g : gates) {
    if (g == 'H')
      c = c.then(Clifford1::h());
    else if (g == 'S')
      c = c.then(Clifford1::s());
    else
      throw std::invalid_argument(std::string("bad gate letter: ") + g);
  }
  return c;
}

}  // namespace

std::string serialize_circuit(const Circuit& c) {
  std::ostringstream os;
  os << "epgc 1\n";
  os << "photons " << c.num_photons() << '\n';
  os << "emitters " << c.num_emitters() << '\n';
  for (const Gate& g : c.gates()) {
    switch (g.kind) {
      case GateKind::emission:
        os << "emit " << qubit_token(g.a) << ' ' << qubit_token(g.b) << '\n';
        break;
      case GateKind::ee_cz:
        os << "cz " << qubit_token(g.a) << ' ' << qubit_token(g.b) << '\n';
        break;
      case GateKind::ee_cnot:
        os << "cnot " << qubit_token(g.a) << ' ' << qubit_token(g.b) << '\n';
        break;
      case GateKind::local:
        os << "local " << qubit_token(g.a) << ' '
           << (g.local.gate_string().empty() ? "I" : g.local.gate_string())
           << '\n';
        break;
      case GateKind::measure_reset: {
        os << "measure " << qubit_token(g.a);
        if (!g.if_one.empty()) {
          os << " ifone";
          for (const auto& corr : g.if_one)
            os << ' ' << pauli_char(corr.op) << qubit_token(corr.target);
        }
        os << '\n';
        break;
      }
    }
  }
  return os.str();
}

Circuit parse_circuit(const std::string& text) {
  std::istringstream is(text);
  std::string word;
  std::size_t version = 0, photons = 0, emitters = 0;

  EPG_REQUIRE(bool(is >> word) && word == "epgc" && bool(is >> version) &&
                  version == 1,
              "missing 'epgc 1' header");
  EPG_REQUIRE(bool(is >> word) && word == "photons" && bool(is >> photons),
              "missing 'photons <n>'");
  EPG_REQUIRE(bool(is >> word) && word == "emitters" && bool(is >> emitters),
              "missing 'emitters <n>'");

  Circuit c(photons, emitters);
  std::string line;
  std::getline(is, line);  // finish the header line
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op)) continue;  // blank line
    if (op == "emit" || op == "cz" || op == "cnot") {
      std::string a, b;
      EPG_REQUIRE(bool(ls >> a >> b), "two operands expected: " + line);
      const QubitId qa = parse_qubit(a), qb = parse_qubit(b);
      if (op == "emit")
        c.emission(qa.index, qb.index);
      else if (op == "cz")
        c.ee_cz(qa.index, qb.index);
      else
        c.ee_cnot(qa.index, qb.index);
      if (op == "emit")
        EPG_REQUIRE(qa.kind == QubitKind::emitter &&
                        qb.kind == QubitKind::photon,
                    "emit needs e# p#: " + line);
    } else if (op == "local") {
      std::string q, gates;
      EPG_REQUIRE(bool(ls >> q >> gates), "local needs qubit+gates: " + line);
      c.local(parse_qubit(q), gates == "I" ? Clifford1::identity()
                                           : parse_clifford(gates));
    } else if (op == "measure") {
      std::string q;
      EPG_REQUIRE(bool(ls >> q), "measure needs a qubit: " + line);
      std::vector<PauliCorrection> if_one;
      std::string token;
      if (ls >> token) {
        EPG_REQUIRE(token == "ifone", "expected 'ifone': " + line);
        while (ls >> token) {
          EPG_REQUIRE(token.size() >= 3, "bad correction: " + token);
          if_one.push_back(
              {parse_qubit(token.substr(1)), parse_pauli(token[0])});
        }
      }
      c.measure_reset(parse_qubit(q).index, std::move(if_one));
    } else {
      throw std::invalid_argument("unknown op: " + line);
    }
  }
  return c;
}

}  // namespace epg
