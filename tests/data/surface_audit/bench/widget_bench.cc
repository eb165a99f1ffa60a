#include <iostream>

#include "widget.h"

int main() {
  WidgetOptions options;
  WidgetPreset(&options);
  std::cout << "open in https://example.org\n";
  options.widget_bench_sets = 2;
  std::cout << "done\n";
  return 0;
}
