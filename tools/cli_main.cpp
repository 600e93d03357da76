#include "tools/cli_options.hpp"

int main(int argc, char** argv) { return greenvis::cli::main(argc, argv); }
