#include <iostream>

#include "helmsim.h"

int
main(int argc, char **argv)
{
    return helm::run_helmsim({argv + 1, argv + argc}, std::cout, std::cerr);
}
