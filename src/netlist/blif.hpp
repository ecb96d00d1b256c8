// Minimal BLIF (Berkeley Logic Interchange Format) front-end, enough to
// read the combinational MCNC benchmark netlists and to round-trip our own
// networks.  Supported constructs: .model, .inputs, .outputs, .names
// (with SOP cover), .end, comments and line continuations.  Sequential
// constructs (.latch) are rejected: the paper's flow is combinational.
//
// A .names function with more than kMaxGateInputs inputs is decomposed on
// the fly into a tree of 2-input AND/OR gates plus inverters, so the
// resulting network always satisfies the Network invariants.
#pragma once

#include <stdexcept>
#include <string>

#include "netlist/network.hpp"

namespace dvs {

class BlifError : public std::runtime_error {
 public:
  BlifError(const std::string& message, int line)
      : std::runtime_error("blif:" + std::to_string(line) + ": " + message),
        line_number(line) {}
  int line_number;
};

/// Parses BLIF text into a Network.  Throws BlifError on malformed input.
Network read_blif_string(const std::string& text);

/// Reads a BLIF file from disk.  Throws BlifError / std::runtime_error.
Network read_blif_file(const std::string& path);

/// Serializes the network as BLIF (.names with minterm covers).
std::string write_blif_string(const Network& net);

}  // namespace dvs
