#include "alpha/alpha.hh"
#include "gamma/widget.hh"

namespace demo
{

// Typo'd metric name (LLL-SRC-110) and unregistered ID (LLL-SRC-111).
const char *kCounter = "svc.requests_totl";
const char *kDiag = "LLL-TST-999";

void
shutDown()
{
    oldThing(); // cross-module deprecated reference (LLL-SRC-122)
    std::exit(3); // banned call (LLL-SRC-121)
    lll_fatal("bye"); // fatal outside System::run (LLL-SRC-121)
}

const char *kBody = "{\"id\": 1}"; // hand-written JSON (LLL-SRC-123)
bool kFresh = ap.boolFlag("--fresh", ""); // flag read by hand (LLL-SRC-124)

} // namespace demo
